// Load generators: closed-loop and open-loop frame senders over one
// connection each.
//
// Closed loop: send a frame, wait for its answer, send the next, until a
// deadline. Open loop: frame k is due at start + k * period, whether or not
// earlier frames have been answered. Each open-loop frame is timed from its
// due time, not from when the generator got round to sending it, so a stall
// on either side shows up as latency of every frame that waited behind it.
// The schedule is never reset when the generator falls behind; its lateness
// (send time minus due time) is recorded per frame. A frame that cannot be
// sent because kMaxInFlight frames are already waiting is counted as a
// missed send, never skipped silently. Frames still unanswered when the
// drain deadline passes count as failed.
#pragma once

#include <cstdint>
#include <vector>

#include "served/client.h"
#include "spans.h"

namespace perfbench {

/// Answer checker tallies, in queries (or churn ops).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Why answers failed, by kind (the printed breakdown of Tally::failed).
struct Failures {
  std::uint64_t error_frames = 0;  // in queries carried by error frames
  std::uint64_t not_found = 0;
  std::uint64_t hop_violations = 0;
  std::uint64_t not_nearest = 0;
  std::uint64_t zero_holders = 0;  // on a static overlay: a failure
  std::uint64_t wrong_estimates = 0;
  std::uint64_t lost = 0;  // missed sends and unanswered frames

  /// Failures that mean a wrong answer (not a performance shortfall).
  std::uint64_t wrong() const {
    return error_frames + not_found + hop_violations + not_nearest +
           zero_holders + wrong_estimates;
  }

  void add(const Failures& o) {
    error_frames += o.error_frames;
    not_found += o.not_found;
    hop_violations += o.hop_violations;
    not_nearest += o.not_nearest;
    zero_holders += o.zero_holders;
    wrong_estimates += o.wrong_estimates;
    lost += o.lost;
  }
};

/// One query kind on one connection: builds request payloads and checks
/// the answers. Implementations remember what each request id asked.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Payload for frame `request_id`.
  virtual std::vector<std::uint8_t> request(std::uint64_t request_id) = 0;
  /// Checks the answer payload of `request_id` into tally().
  virtual void answer(std::uint64_t request_id,
                      const std::vector<std::uint8_t>& payload) = 0;
  /// Counts every query of `request_id` as failed (frame never answered).
  virtual void lost(std::uint64_t request_id) = 0;
  /// Queries carried per frame.
  virtual std::size_t batch() const = 0;

  const Tally& tally() const { return tally_; }
  const Failures& failures() const { return failures_; }

 protected:
  Tally tally_;
  Failures failures_;
};

struct FrameTimes {
  std::uint64_t request_id = 0;
  std::uint64_t due_ns = 0;   // open loop: schedule slot; closed: send time
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;  // 0 = never answered

  double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
  double lateness_ms() const {
    return static_cast<double>(sent_ns - due_ns) * 1e-6;
  }
};

struct PhaseResult {
  std::vector<FrameTimes> frames;  // answered frames only
  std::uint64_t sends_missed = 0;
};

inline constexpr std::size_t kMaxInFlight = 1024;

/// Sends frames one at a time until mono_ns() >= deadline_ns.
PhaseResult run_closed_loop(ron::Client& client, Stream& stream,
                            std::uint64_t deadline_ns);

/// Sends `frames` frames due every `period_ns` from `start_ns`, then drains
/// answers until `drain_ns` past the last due time.
PhaseResult run_open_loop(ron::Client& client, Stream& stream,
                          std::uint64_t start_ns, std::uint64_t period_ns,
                          std::size_t frames, std::uint64_t drain_ns);

/// Records one "served.frame" span per answered frame under `parent`.
void trace_frames(Tracer& tracer, std::uint64_t parent,
                  const PhaseResult& phase);

}  // namespace perfbench
