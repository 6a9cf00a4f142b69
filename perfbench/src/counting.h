// Counting decorators for the metric layer, used only by the traced run.
//
// CountingMetric wraps a MetricSpace and counts distance() probes.
// CountingProximity wraps a ProximityIndex built over a CountingMetric and
// counts ball_ids calls, the members they materialize, and full-row calls
// (row, ball), plus the busy time spent inside every index call. Both
// forward every answer unchanged, so a pipeline built over them computes
// exactly what the plain pipeline computes; the traced run proves that by
// comparing rings digests.
//
// The counters are plain integers, so the decorators must be used from one
// thread at a time: the traced run builds its dense rows with one thread
// and makes every other call from its main thread. (Relaxed atomics here
// more than doubled the tracing overhead of the sparse build.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "metric/metric_space.h"
#include "metric/point_source.h"
#include "metric/proximity.h"

namespace perfbench {

struct MetricCounts {
  std::uint64_t distance_probes = 0;
  std::uint64_t ball_ids_calls = 0;
  std::uint64_t ball_members = 0;
  std::uint64_t row_calls = 0;  // row() and ball(): full-row spans
  double query_s = 0.0;         // busy time inside the counted index calls
};

class CountingMetric final : public ron::MetricSpace {
 public:
  explicit CountingMetric(const ron::MetricSpace& inner) : inner_(inner) {}

  std::size_t n() const override { return inner_.n(); }
  ron::Dist distance(ron::NodeId u, ron::NodeId v) const override {
    ++probes_;
    return inner_.distance(u, v);
  }
  std::string name() const override { return inner_.name(); }
  /// The inner family's point source, rebuilt over this metric so the
  /// sparse backend's on-demand probes are counted too.
  std::unique_ptr<ron::PointSource> make_point_source() const override;

  std::uint64_t probes() const { return probes_; }

 private:
  const ron::MetricSpace& inner_;
  mutable std::uint64_t probes_ = 0;
};

class CountingProximity final : public ron::ProximityIndex {
 public:
  /// `metric` must be the CountingMetric `inner` was built over (so the
  /// base-class dist()/nearest_in() probes are counted as well); both are
  /// borrowed.
  CountingProximity(const CountingMetric& metric,
                    const ron::ProximityIndex& inner);

  bool has_full_rows() const override { return inner_.has_full_rows(); }
  std::span<const Neighbor> row(ron::NodeId u) const override;
  std::span<const Neighbor> ball(ron::NodeId u, ron::Dist r) const override;
  std::size_t ball_size(ron::NodeId u, ron::Dist r) const override;
  ron::BallIds ball_ids(ron::NodeId u, ron::Dist r) const override;
  ron::Dist kth_radius(ron::NodeId u, std::size_t k) const override;

  MetricCounts counts() const;

 private:
  const CountingMetric& counting_metric_;
  const ron::ProximityIndex& inner_;
  mutable std::uint64_t ball_ids_calls_ = 0;
  mutable std::uint64_t ball_members_ = 0;
  mutable std::uint64_t row_calls_ = 0;
  mutable std::uint64_t busy_ns_ = 0;
};

}  // namespace perfbench
