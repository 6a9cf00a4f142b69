#include "load.h"

#include <poll.h>

#include <unordered_map>

#include "common/check.h"
#include "served/protocol.h"

namespace perfbench {

PhaseResult run_closed_loop(ron::Client& client, Stream& stream,
                            std::uint64_t deadline_ns) {
  PhaseResult out;
  std::vector<std::uint8_t> payload;
  std::uint64_t id = client.next_request_id();
  while (mono_ns() < deadline_ns) {
    FrameTimes t;
    t.request_id = id;
    t.due_ns = t.sent_ns = mono_ns();
    client.send_frame(stream.request(id));
    payload = client.recv_frame();
    t.done_ns = mono_ns();
    RON_CHECK(ron::parse_frame(payload).request_id == id,
              "perfbench: closed-loop answer out of order");
    stream.answer(id, payload);
    out.frames.push_back(t);
    ++id;
  }
  return out;
}

PhaseResult run_open_loop(ron::Client& client, Stream& stream,
                          std::uint64_t start_ns, std::uint64_t period_ns,
                          std::size_t frames, std::uint64_t drain_ns) {
  PhaseResult out;
  out.frames.reserve(frames);
  // Frames sent and not yet answered, by request id.
  std::unordered_map<std::uint64_t, FrameTimes> in_flight;
  std::vector<std::uint8_t> payload;
  const std::uint64_t base_id = client.next_request_id();
  const std::uint64_t last_due =
      start_ns + period_ns * static_cast<std::uint64_t>(frames - 1);
  const std::uint64_t give_up = last_due + drain_ns;
  std::size_t next = 0;  // next schedule slot to send
  while (true) {
    std::uint64_t now = mono_ns();
    while (next < frames && start_ns + period_ns * next <= now) {
      const std::uint64_t due = start_ns + period_ns * next;
      const std::uint64_t id = base_id + next;
      ++next;
      if (in_flight.size() >= kMaxInFlight) {
        ++out.sends_missed;
        stream.lost(id);
        continue;
      }
      client.send_frame(stream.request(id));
      in_flight.emplace(id, FrameTimes{id, due, mono_ns(), 0});
      now = mono_ns();
    }
    while (client.poll_frame(payload)) {
      const std::uint64_t done = mono_ns();
      const std::uint64_t id = ron::parse_frame(payload).request_id;
      const auto it = in_flight.find(id);
      RON_CHECK(it != in_flight.end(),
                "perfbench: answer to unknown request id " << id);
      it->second.done_ns = done;
      stream.answer(id, payload);
      out.frames.push_back(it->second);
      in_flight.erase(it);
    }
    now = mono_ns();
    if (next >= frames && (in_flight.empty() || now >= give_up)) break;
    // Sleep in poll(2) until the next due slot or an answer arrives.
    const std::uint64_t wake =
        next < frames ? start_ns + period_ns * next : give_up;
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd pfd{client.fd(), POLLIN, 0};
    ::ppoll(&pfd, 1, &timeout, nullptr);
  }
  for (const auto& [id, t] : in_flight) stream.lost(id);
  return out;
}

void trace_frames(Tracer& tracer, std::uint64_t parent,
                  const PhaseResult& phase) {
  for (const FrameTimes& t : phase.frames) {
    tracer.add("served.frame", parent, t.request_id, t.due_ns, t.done_ns);
  }
}

}  // namespace perfbench
