#include "location/location_service.h"

#include <cmath>

#include "common/check.h"
#include "smallworld/model.h"

namespace ron {

namespace {

/// greedy_next_hop over a ring container in either storage mode. Visits
/// u's distinct neighbors in ascending id order — exactly the order of the
/// mutable mode's all_neighbors() span — with the same strict-progress /
/// lowest-id tie-break as the span overload, so the walk is bit-identical
/// on sealed (compact) and mutable rings.
NodeId greedy_next_hop_rings(const MetricSpace& d,
                             const RingsOfNeighbors& rings, NodeId u,
                             NodeId t) {
  const Dist dut = d.distance(u, t);
  NodeId best = kInvalidNode;
  Dist best_d = dut;  // must make strict progress
  rings.visit_neighbors(u, [&](NodeId c) {
    if (c == u) return;
    const Dist dct = c == t ? 0.0 : d.distance(c, t);
    if (dct < best_d || (dct == best_d && best != kInvalidNode && c < best)) {
      best = c;
      best_d = dct;
    }
  });
  return best;
}

}  // namespace

std::size_t location_hop_bound(std::size_t n) {
  RON_CHECK(n >= 1, "n=" << n);
  const auto log_n = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(n, 2)))));
  return 4 * log_n + 8;
}

double location_stretch_bound(std::size_t hops) {
  return std::max(1.0, 2.0 * static_cast<double>(hops));
}

LocationService::LocationService(const ProximityIndex& prox,
                                 const RingsOfNeighbors& rings,
                                 const ObjectDirectory& directory)
    : prox_(prox), rings_(rings), directory_(directory) {
  RON_CHECK(rings.n() == prox.n(),
            "LocationService: rings over " << rings.n() << " nodes, metric has "
                                           << prox.n());
  RON_CHECK(directory.n() == prox.n(),
            "LocationService: directory over " << directory.n()
                                               << " nodes, metric has "
                                               << prox.n());
}

LocateResult LocationService::locate(NodeId querier, ObjectId obj,
                                     const LocateOptions& opts,
                                     LocateTrace* trace) const {
  RON_CHECK(querier < n(), "locate: querier " << querier << " out of range");
  const std::span<const NodeId> holders = directory_.holders(obj);
  // Zero-holder contract (see object_directory.h): a live name whose every
  // copy was unpublished has no nearest copy to walk to. Churn makes this
  // routine, so it throws with the object's name instead of returning a
  // found=false that would masquerade as a routing failure.
  RON_CHECK(!holders.empty(), "locate: object '" << directory_.name(obj)
                                  << "' has zero holders (every copy "
                                     "unpublished)");
  LocateResult r;

  // The directory/prox layer resolves the target copy; the walk below is
  // the strongly local part and must reach it through ring contacts only.
  const NodeId target = prox_.nearest_in(querier, holders);
  r.nearest_dist = prox_.dist(querier, target);
  if (trace != nullptr) {
    // `found` stays false on the undelivered/stuck returns below — the
    // trace mirrors the result it was sampled with.
    *trace = LocateTrace{};
    trace->querier = querier;
    trace->object = obj;
    trace->target = target;
    trace->nearest_dist = r.nearest_dist;
  }
  NodeId cur = querier;
  while (cur != target) {
    if (r.hops >= opts.max_hops) return r;  // undelivered
    const NodeId next =
        greedy_next_hop_rings(prox_.metric(), rings_, cur, target);
    if (next == kInvalidNode || next == cur) return r;  // stuck
    if (trace != nullptr) {
      // Only the traced (sampled) walks pay the ring-level scan.
      trace->hops.push_back(TraceHop{next, rings_.ring_level_of(cur, next),
                                     prox_.dist(next, target)});
    }
    r.path_length += prox_.dist(cur, next);
    ++r.hops;
    cur = next;
    if (opts.stop_at_any_holder && directory_.is_holder(obj, cur)) break;
  }
  r.found = true;
  if (trace != nullptr) trace->found = true;
  r.holder = cur;
  r.holder_dist = prox_.dist(querier, cur);
  r.route_stretch =
      r.nearest_dist > 0.0 ? r.path_length / r.nearest_dist : 1.0;
  r.distance_stretch =
      r.nearest_dist > 0.0 ? r.holder_dist / r.nearest_dist : 1.0;
  return r;
}

LocateResult LocationService::locate(NodeId querier, const std::string& object,
                                     const LocateOptions& opts) const {
  const ObjectId obj = directory_.find(object);
  RON_CHECK(obj != kInvalidObject,
            "locate: object '" << object << "' was never published");
  return locate(querier, obj, opts);
}

int overlay_net_top_level(const ProximityIndex& prox) {
  return static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1;
}

LocationOverlay::LocationOverlay(const ProximityIndex& prox,
                                 const RingsModelParams& params,
                                 std::uint64_t seed) {
  nets_ = std::make_unique<NetHierarchy>(prox, overlay_net_top_level(prox));
  mu_ = std::make_unique<MeasureView>(prox, doubling_measure(*nets_));
  mu_view_ = mu_.get();
  model_ = std::make_unique<RingsSmallWorld>(prox, *mu_, params, seed);
}

LocationOverlay::LocationOverlay(const MeasureView& mu,
                                 const RingsModelParams& params,
                                 std::uint64_t seed)
    : mu_view_(&mu) {
  model_ = std::make_unique<RingsSmallWorld>(mu.prox(), mu, params, seed);
}

}  // namespace ron
