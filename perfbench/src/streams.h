// Query streams and their answer checks (the benchmark's correctness gate).
//
// Every answer the server returns is checked against an in-process
// reference before it counts:
//   - locate: the walk found a holder within location_hop_bound(n) hops;
//     on a static overlay that holder is a nearest published copy, by
//     exact metric distance over the reference directory;
//   - estimate: the value is bit-identical to DistanceLabeling::estimate
//     over the in-process labeling on the same pair;
//   - churn: every chunk is acknowledged in full with a strictly larger
//     epoch id than the one before.
// Under churn a querier that has left the overlay has no rings to walk
// from, so the churn workload draws queriers through a QuerierGate that
// only hands out nodes active in every epoch the frame can meet.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "churn/churn_trace.h"
#include "churn/overlay_mutator.h"
#include "common/rng.h"
#include "labeling/distance_labels.h"
#include "load.h"
#include "location/object_directory.h"
#include "metric/metric_space.h"
#include "oracle/engine.h"
#include "served/client.h"

namespace perfbench {

/// Hands out locate queriers that stay active while their frame is in
/// flight. The admin sender marks a chunk's leaving nodes unsafe and waits
/// for any frame drawn before that to be answered before it sends the
/// chunk; joining nodes become safe once their chunk is acknowledged.
class QuerierGate {
 public:
  explicit QuerierGate(const ron::OverlayMutator& state);

  /// Locate side: draws `k` queriers and marks a frame in flight.
  std::vector<ron::NodeId> acquire(ron::Rng& rng, std::size_t k);
  /// Locate side: the frame drawn by the last acquire() was answered.
  void release();

  /// Admin side, before sending `chunk`.
  void before_chunk(const ron::ChurnTrace& chunk);
  /// Admin side, after `chunk` was acknowledged.
  void after_ack(const ron::ChurnTrace& chunk);

 private:
  void rebuild_list();  // requires mu_

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> safe_;          // guarded by mu_
  std::vector<ron::NodeId> list_;   // guarded by mu_: ids with safe_ set
  std::uint64_t version_ = 0;       // guarded by mu_
  bool in_flight_ = false;          // guarded by mu_
  std::uint64_t in_flight_version_ = 0;  // guarded by mu_
};

class LocateStream final : public Stream {
 public:
  /// Static overlay: `metric` and `directory` are the reference (borrowed).
  LocateStream(std::uint64_t seed, std::size_t n, std::size_t objects,
               const ron::MetricSpace& metric,
               const ron::ObjectDirectory& directory);
  /// Churning overlay: queriers come from `gate` (borrowed); zero-holder
  /// answers are a defined state and nearest-copy is not checked.
  LocateStream(std::uint64_t seed, std::size_t n, std::size_t objects,
               QuerierGate& gate);

  std::vector<std::uint8_t> request(std::uint64_t request_id) override;
  void answer(std::uint64_t request_id,
              const std::vector<std::uint8_t>& payload) override;
  void lost(std::uint64_t request_id) override;
  std::size_t batch() const override { return kBatch; }

  /// Queries per frame. Large enough that a frame's work outweighs the two
  /// thread wake-ups that carry it over loopback, so frame latency follows
  /// the program's work more than the host's scheduling (README.md, Noise).
  static constexpr std::size_t kBatch = 512;

 private:
  void check(const ron::LocateQuery& q, const ron::ServedLocate& a);

  ron::Rng rng_;
  std::size_t n_;
  std::size_t objects_;
  std::size_t hop_bound_;
  const ron::MetricSpace* metric_ = nullptr;        // static only
  const ron::ObjectDirectory* directory_ = nullptr;  // static only
  QuerierGate* gate_ = nullptr;                      // churn only
  std::map<std::uint64_t, std::vector<ron::LocateQuery>> pending_;
};

/// Cycles through a pool of frames of random pairs whose reference answers
/// are computed up front, so checking an answer costs a compare, not a
/// second label merge competing with the server for the CPU.
class EstimateStream final : public Stream {
 public:
  /// `reference` is the in-process labeling (borrowed); `pool_frames`
  /// frames are drawn and answered in the constructor.
  EstimateStream(std::uint64_t seed, const ron::DistanceLabeling& reference,
                 std::size_t pool_frames);

  std::vector<std::uint8_t> request(std::uint64_t request_id) override;
  void answer(std::uint64_t request_id,
              const std::vector<std::uint8_t>& payload) override;
  void lost(std::uint64_t request_id) override;
  std::size_t batch() const override { return kBatch; }

  /// Pairs per frame, as LocateStream::kBatch.
  static constexpr std::size_t kBatch = 512;

 private:
  std::vector<std::vector<ron::QueryPair>> pairs_;  // per pool frame
  std::vector<std::vector<ron::Dist>> expected_;    // per pool frame
  std::size_t next_ = 0;
  std::map<std::uint64_t, std::size_t> pending_;  // request id -> pool frame
};

/// Result of driving the admin channel.
struct ChurnRun {
  std::vector<double> round_trip_ms;  // per acknowledged chunk
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_acked = 0;
  bool epochs_increasing = true;
  std::uint64_t chunks_failed = 0;
};

/// Sends `trace` through `admin` in chunks of `chunk_ops`, one chunk every
/// `period_ns` (or back to back when the previous chunk is still in flight)
/// until the trace ends or mono_ns() >= deadline_ns.
ChurnRun run_churn_admin(ron::Client& admin, const ron::ChurnTrace& trace,
                         std::size_t chunk_ops, std::uint64_t period_ns,
                         QuerierGate& gate, std::uint64_t deadline_ns);

/// The ops [begin, end) of `trace` as a trace of their own.
ron::ChurnTrace slice(const ron::ChurnTrace& trace, std::size_t begin,
                      std::size_t end);

}  // namespace perfbench
