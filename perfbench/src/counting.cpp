#include "counting.h"

#include "common/check.h"
#include "spans.h"

namespace perfbench {

namespace {

/// Adds the wall time of one decorated call to `busy` when it returns.
class BusyTimer {
 public:
  explicit BusyTimer(std::uint64_t& busy)
      : busy_(busy), start_(mono_ns()) {}
  ~BusyTimer() { busy_ += mono_ns() - start_; }
  BusyTimer(const BusyTimer&) = delete;
  BusyTimer& operator=(const BusyTimer&) = delete;

 private:
  std::uint64_t& busy_;
  std::uint64_t start_;
};

}  // namespace

std::unique_ptr<ron::PointSource> CountingMetric::make_point_source() const {
  const std::unique_ptr<ron::PointSource> inner = inner_.make_point_source();
  if (inner == nullptr) return nullptr;
  // The three PointSource kinds are generic over MetricSpace; rebuilding the
  // same kind over *this changes which object answers distance(), nothing
  // else.
  if (dynamic_cast<const ron::LineSource*>(inner.get()) != nullptr) {
    return std::make_unique<ron::LineSource>(*this);
  }
  if (dynamic_cast<const ron::RingSource*>(inner.get()) != nullptr) {
    return std::make_unique<ron::RingSource>(*this);
  }
  if (dynamic_cast<const ron::ScanSource*>(inner.get()) != nullptr) {
    return std::make_unique<ron::ScanSource>(*this);
  }
  RON_CHECK(false, "perfbench: metric '" << inner_.name()
                                         << "' has a point source the "
                                            "counting decorator cannot "
                                            "rebuild");
  return nullptr;
}

CountingProximity::CountingProximity(const CountingMetric& metric,
                                     const ron::ProximityIndex& inner)
    : ron::ProximityIndex(metric), counting_metric_(metric), inner_(inner) {
  RON_CHECK(&inner.metric() == &metric,
            "perfbench: the decorated index must be built over the "
            "counting metric");
  dmin_ = inner.dmin();
  dmax_ = inner.dmax();
  init_scales();
}

std::span<const ron::ProximityIndex::Neighbor> CountingProximity::row(
    ron::NodeId u) const {
  ++row_calls_;
  const BusyTimer t(busy_ns_);
  return inner_.row(u);
}

std::span<const ron::ProximityIndex::Neighbor> CountingProximity::ball(
    ron::NodeId u, ron::Dist r) const {
  ++row_calls_;
  const BusyTimer t(busy_ns_);
  return inner_.ball(u, r);
}

std::size_t CountingProximity::ball_size(ron::NodeId u, ron::Dist r) const {
  const BusyTimer t(busy_ns_);
  return inner_.ball_size(u, r);
}

ron::BallIds CountingProximity::ball_ids(ron::NodeId u, ron::Dist r) const {
  ++ball_ids_calls_;
  const BusyTimer t(busy_ns_);
  ron::BallIds ids = inner_.ball_ids(u, r);
  ball_members_ += ids.size();
  return ids;
}

ron::Dist CountingProximity::kth_radius(ron::NodeId u, std::size_t k) const {
  const BusyTimer t(busy_ns_);
  return inner_.kth_radius(u, k);
}

MetricCounts CountingProximity::counts() const {
  MetricCounts c;
  c.distance_probes = counting_metric_.probes();
  c.ball_ids_calls = ball_ids_calls_;
  c.ball_members = ball_members_;
  c.row_calls = row_calls_;
  c.query_s = static_cast<double>(busy_ns_) * 1e-9;
  return c;
}

}  // namespace perfbench
