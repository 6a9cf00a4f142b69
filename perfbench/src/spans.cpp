#include "spans.h"

#include <chrono>
#include <fstream>

#include "common/check.h"

namespace perfbench {

std::uint64_t mono_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent,
                            std::uint64_t request_id) {
  const std::uint64_t start = mono_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.request_id = request_id;
  s.name = std::move(name);
  s.start_ns = start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const std::uint64_t stop = mono_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  // Span ids are dense and start at 1, so the id is the slot index + 1.
  RON_CHECK(id >= 1 && id <= spans_.size(), "perfbench: unknown span " << id);
  spans_[id - 1].end_ns = stop;
}

void Tracer::add(std::string name, std::uint64_t parent,
                 std::uint64_t request_id, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.request_id = request_id;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
}

double Tracer::seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns != 0) total += s.seconds();
  }
  return total;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns != 0) out.push_back(s.seconds() * 1e6);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  RON_CHECK(out.good(), "perfbench: cannot write spans to '" << path << "'");
  out << "{\"schema\":\"ron.perfbench.spans.v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "\n]}\n";
  RON_CHECK(out.good(), "perfbench: short write of spans to '" << path << "'");
}

}  // namespace perfbench
