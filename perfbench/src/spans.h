// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, timed from the
// benchmark side: name, start, end, parent span and request id (0 for
// build stages, the frame's request id for served frames). Spans are
// appended to a vector under a mutex and written out once, when the run
// ends, so recording costs two clock reads and a push_back.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
std::uint64_t mono_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request_id = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  /// Opens a span and returns its id; close it with end(id).
  std::uint64_t begin(std::string name, std::uint64_t parent = 0,
                      std::uint64_t request_id = 0);
  void end(std::uint64_t id);
  /// Records an already-timed span (served frames are timed by the load generator).
  void add(std::string name, std::uint64_t parent, std::uint64_t request_id,
           std::uint64_t start_ns, std::uint64_t end_ns);

  /// Total seconds of every closed span named `name`.
  double seconds(const std::string& name) const;
  /// Durations in microseconds of every closed span named `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Writes every span as one JSON document (ron.perfbench.spans.v1).
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
