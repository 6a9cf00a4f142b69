#include "net/doubling_measure.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace ron {

std::vector<double> doubling_measure(const NetHierarchy& nets) {
  const ProximityIndex& prox = nets.prox();
  const std::size_t n = prox.n();
  const int top = nets.l_max();
  // mass[v] = measure currently assigned to net point v at the level being
  // processed. Start at the top level with equal mass per root.
  std::vector<double> mass(n, 0.0);
  auto roots = nets.members(top);
  RON_CHECK(!roots.empty(), "hierarchy has no roots");
  for (NodeId r : roots) {
    mass[r] = 1.0 / static_cast<double>(roots.size());
  }
  // Push mass down: each level-(l-1) member attaches to its nearest level-l
  // member; every level-l parent splits equally among its children. A net
  // point is always its own child (nearest at distance 0), so mass flows
  // down the chain.
  std::vector<double> next_mass(n);
  std::vector<std::uint32_t> child_count(n);
  for (int l = top; l >= 1; --l) {
    std::fill(next_mass.begin(), next_mass.end(), 0.0);
    std::fill(child_count.begin(), child_count.end(), 0u);
    auto fine = nets.members(l - 1);
    for (NodeId q : fine) {
      ++child_count[nets.nearest_member(l, q)];
    }
    for (NodeId q : fine) {
      const NodeId p = nets.nearest_member(l, q);
      RON_CHECK(child_count[p] > 0, "node p=" << p << " has no children");
      next_mass[q] += mass[p] / static_cast<double>(child_count[p]);
    }
    mass.swap(next_mass);
  }
  // Level 0 contains every node, so `mass` is now a full distribution.
  double total = 0.0;
  for (double m : mass) total += m;
  RON_CHECK(std::abs(total - 1.0) < 1e-9, "measure mass leaked: " << total);
  return mass;
}

std::vector<double> counting_measure(std::size_t n) {
  RON_CHECK(n >= 1, "n=" << n);
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

MeasureView::MeasureView(const ProximityIndex& prox,
                         std::span<const double> weights)
    : prox_(prox), weights_(weights.begin(), weights.end()) {
  const std::size_t n = prox_.n();
  RON_CHECK(weights_.size() == n, "one weight per node required");
  for (double w : weights_) RON_CHECK(w >= 0.0, "negative weight");
  G_.resize(n + 1);
  G_[0] = 0.0;
  for (std::size_t v = 0; v < n; ++v) G_[v + 1] = G_[v] + weights_[v];
}

double MeasureView::ball_measure(NodeId u, Dist r) const {
  // Sequential sum in ascending id order on both BallIds branches: the
  // member enumeration is canonical, so either proximity backend produces
  // the bit-identical double, and for equal weights the value matches any
  // other summation order (the packing layer compares masses of
  // equal-cardinality counting-measure balls and must not see ulp noise
  // from a prefix-difference fast path). Only sample_in_ball, the hot
  // million-node call, uses the G_ prefix.
  double acc = 0.0;
  prox_.ball_ids(u, r).for_each([&](NodeId v) { acc += weights_[v]; });
  return acc;
}

Dist MeasureView::rank_radius(NodeId u, double eps) const {
  const std::size_t n = prox_.n();
  RON_CHECK(eps > 0.0, "rank_radius: eps must be positive");
  // G_.back() is the total mass summed sequentially in ascending id order —
  // the same double ball_measure(u, dmax) computes, without copying the
  // whole-metric ball on every call.
  RON_CHECK(eps <= G_.back() + 1e-12,
            "rank_radius: eps exceeds total mass around node " << u);
  // Measure of the closed k-th-radius ball is nondecreasing in the rank k,
  // so binary search for the smallest rank whose ball reaches eps
  // (tolerating fp slack), then report that ball's radius.
  std::size_t lo = 1, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ball_measure(u, prox_.kth_radius(u, mid)) >= eps - 1e-15) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return prox_.kth_radius(u, lo);
}

NodeId MeasureView::sample_in_ball(NodeId u, Dist r, Rng& rng) const {
  return sample_in_ball(prox_.ball_ids(u, r), r, rng);
}

NodeId MeasureView::sample_in_ball(const BallIds& ids, Dist r,
                                   Rng& rng) const {
  RON_CHECK(!ids.empty(), "empty ball at radius " << r);
  // Both branches consume exactly one uniform draw, and the branch follows
  // the canonical BallIds form, so either proximity backend advances the
  // rng stream identically and picks the same node. Zero-weight members are
  // never chosen (their cumulative mass never exceeds the draw).
  if (ids.runs_backed()) {
    const auto runs = ids.runs();
    double mass = 0.0;
    for (const auto& run : runs) mass += G_[run.end] - G_[run.begin];
    RON_CHECK(mass > 0.0, "zero-mass ball at radius " << r);
    double x = rng.uniform(0.0, mass);
    for (const auto& run : runs) {
      const double w = G_[run.end] - G_[run.begin];
      if (x < w) {
        // Smallest v in [run.begin, run.end) with G_[v + 1] > G_[run.begin]
        // + x; x < w guarantees a hit within the run.
        const auto it = std::upper_bound(G_.begin() + run.begin + 1,
                                         G_.begin() + run.end + 1,
                                         G_[run.begin] + x);
        return static_cast<NodeId>((it - G_.begin()) - 1);
      }
      x -= w;
    }
    return runs.back().end - 1;  // fp slack: clamp to the last member
  }
  const auto member_ids = ids.ids();
  double mass = 0.0;
  for (NodeId v : member_ids) mass += weights_[v];
  RON_CHECK(mass > 0.0, "zero-mass ball at radius " << r);
  double x = rng.uniform(0.0, mass);
  for (NodeId v : member_ids) {
    x -= weights_[v];
    if (x < 0.0) return v;
  }
  return member_ids.back();  // fp slack: clamp to the last member
}

double MeasureView::doubling_ratio(std::size_t center_samples,
                                   std::uint64_t seed) const {
  Rng rng(seed);
  const std::size_t n = prox_.n();
  double worst = 1.0;
  auto centers =
      rng.sample_without_replacement(std::min(center_samples, n), n);
  for (std::size_t ci : centers) {
    const NodeId u = static_cast<NodeId>(ci);
    for (Dist r = prox_.dmin(); r <= prox_.dmax() * 2.0; r *= 2.0) {
      const double small = ball_measure(u, r / 2.0);
      const double big = ball_measure(u, r);
      if (small > 0.0) worst = std::max(worst, big / small);
    }
  }
  return worst;
}

}  // namespace ron
