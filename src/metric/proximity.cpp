#include "metric/proximity.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "common/check.h"

namespace ron {

ProximityIndex::ProximityIndex(const MetricSpace& metric)
    : metric_(metric), n_(metric.n()) {
  RON_CHECK(n_ >= 2, "ProximityIndex needs >= 2 nodes");
}

void ProximityIndex::init_scales() {
  num_levels_ = std::max(1, ceil_log2(n_));
  num_scales_ = std::max(1, floor_log2_real(aspect_ratio()) + 1);
}

std::span<const ProximityIndex::Neighbor> ProximityIndex::row(NodeId u) const {
  RON_CHECK(false, "ProximityIndex: full rows are dense-backend only "
                   "(backend for n=" << n_ << " node " << u
                   << " has no row storage); query ball_ids/kth_radius, or "
                   "build a DenseProximityIndex");
  return {};
}

std::span<const ProximityIndex::Neighbor> ProximityIndex::ball(NodeId u,
                                                               Dist r) const {
  RON_CHECK(false, "ProximityIndex: ball() spans are dense-backend only "
                   "(node " << u << ", r=" << r
                   << "); use ball_ids/ball_size, or build a "
                   "DenseProximityIndex");
  return {};
}

std::vector<ProximityIndex::Neighbor> ProximityIndex::row_prefix(
    NodeId u, std::size_t k) const {
  RON_CHECK(k >= 1 && k <= n_, "row_prefix: k=" << k << ", n=" << n_);
  const Dist r = kth_radius(u, k);
  std::vector<Neighbor> out;
  ball_ids(u, r).for_each(
      [&](NodeId v) { out.push_back({metric_.distance(u, v), v}); });
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.d != b.d) return a.d < b.d;
    return a.v < b.v;
  });
  out.resize(k);
  return out;
}

Dist ProximityIndex::rank_radius(NodeId u, double eps) const {
  RON_CHECK(eps > 0.0 && eps <= 1.0, "rank_radius: eps in (0,1]");
  auto k = static_cast<std::size_t>(
      std::ceil(eps * static_cast<double>(n_) - 1e-12));
  if (k < 1) k = 1;
  if (k > n_) k = n_;
  return kth_radius(u, k);
}

Dist ProximityIndex::level_radius(NodeId u, int i) const {
  RON_CHECK(i >= 0, "level_radius: i >= 0 (use level_radius_prev for i-1)");
  // k = ceil(n / 2^i) in exact integer arithmetic: floor((n-1) / 2^i) + 1
  // for n >= 1. Once 2^i >= n the level holds a single node; shifting by
  // >= the width of size_t is undefined, so clamp those i to k = 1.
  std::size_t k = 1;
  if (i < std::numeric_limits<std::size_t>::digits) {
    k = ((n_ - 1) >> i) + 1;
  }
  return kth_radius(u, k);
}

NodeId ProximityIndex::nearest_in(NodeId u,
                                  std::span<const NodeId> candidates) const {
  NodeId best = kInvalidNode;
  Dist best_d = kInfDist;
  for (NodeId v : candidates) {
    const Dist d = dist(u, v);
    if (d < best_d || (d == best_d && v < best)) {
      best = v;
      best_d = d;
    }
  }
  return best;
}

DenseProximityIndex::DenseProximityIndex(const MetricSpace& metric,
                                         unsigned num_threads)
    : ProximityIndex(metric) {
  RON_CHECK(n_ <= kMaxDenseNodes,
            "DenseProximityIndex: n=" << n_ << " exceeds the dense-backend "
            "cap of " << kMaxDenseNodes << " nodes (rows would need "
            << (n_ * n_ * sizeof(Neighbor)) << " bytes); use "
            "SparseProximityIndex for large metrics");
  rows_.resize(n_ * n_);

  // Each row only touches its own slice of rows_, so rows build
  // independently; dmin/dmax are reduced per worker and merged after join.
  auto build_rows = [this](NodeId begin, NodeId end, Dist& dmin_out,
                           Dist& dmax_out) {
    Dist dmin = kInfDist;
    Dist dmax = 0.0;
    for (NodeId u = begin; u < end; ++u) {
      Neighbor* r = &rows_[static_cast<std::size_t>(u) * n_];
      for (NodeId v = 0; v < n_; ++v) {
        r[v] = Neighbor{metric_.distance(u, v), v};
      }
      std::sort(r, r + n_, [](const Neighbor& a, const Neighbor& b) {
        if (a.d != b.d) return a.d < b.d;
        return a.v < b.v;
      });
      RON_CHECK(r[0].v == u && r[0].d == 0.0,
                "row must start with (0, u); duplicate points?");
      RON_CHECK(r[1].d > 0.0, "duplicate point detected at node " << u);
      dmin = std::min(dmin, r[1].d);
      dmax = std::max(dmax, r[n_ - 1].d);
    }
    dmin_out = dmin;
    dmax_out = dmax;
  };

  if (num_threads == 0) {
    // Auto: one thread per core, except below a size where the whole build
    // is microseconds of work and spawn/join would dominate. An explicit
    // num_threads > 1 is always honored.
    num_threads =
        n_ < 256 ? 1 : std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, n_));

  if (num_threads <= 1) {
    build_rows(0, static_cast<NodeId>(n_), dmin_, dmax_);
  } else {
    const std::size_t chunk = (n_ + num_threads - 1) / num_threads;
    std::vector<Dist> mins(num_threads, kInfDist);
    std::vector<Dist> maxs(num_threads, 0.0);
    std::vector<std::exception_ptr> errors(num_threads);
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    try {
      for (unsigned t = 0; t < num_threads; ++t) {
        const auto begin = static_cast<NodeId>(std::min(n_, t * chunk));
        const auto end = static_cast<NodeId>(std::min(n_, (t + 1) * chunk));
        workers.emplace_back([&, t, begin, end] {
          try {
            build_rows(begin, end, mins[t], maxs[t]);
          } catch (...) {
            errors[t] = std::current_exception();
          }
        });
      }
    } catch (...) {
      // Thread spawn failed (resource limit): join what started, then
      // propagate instead of letting ~thread() call std::terminate.
      for (std::thread& w : workers) w.join();
      throw;
    }
    for (std::thread& w : workers) w.join();
    // RON_CHECK throws on invalid input (e.g. duplicate points); surface the
    // first worker failure with its original message.
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    dmin_ = *std::min_element(mins.begin(), mins.end());
    dmax_ = *std::max_element(maxs.begin(), maxs.end());
  }

  init_scales();
}

std::span<const ProximityIndex::Neighbor> DenseProximityIndex::row(
    NodeId u) const {
  RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
  return {&rows_[static_cast<std::size_t>(u) * n_], n_};
}

std::span<const ProximityIndex::Neighbor> DenseProximityIndex::ball(
    NodeId u, Dist r) const {
  auto rw = row(u);
  if (r < 0.0) return rw.subspan(0, 0);
  // Last index with d <= r (closed ball).
  auto it = std::upper_bound(
      rw.begin(), rw.end(), r,
      [](Dist rr, const Neighbor& nb) { return rr < nb.d; });
  return rw.subspan(0, static_cast<std::size_t>(it - rw.begin()));
}

BallIds DenseProximityIndex::ball_ids(NodeId u, Dist r) const {
  auto b = ball(u, r);
  // Line families (and every ball that does not wrap) hold one id run: k
  // distinct ids spanning exactly max - min + 1 values are that run, which
  // is the canonical form the sort below would also produce.
  if (!b.empty()) {
    NodeId lo = b.front().v;
    NodeId hi = lo;
    for (const Neighbor& nb : b) {
      lo = std::min(lo, nb.v);
      hi = std::max(hi, nb.v);
    }
    if (static_cast<std::size_t>(hi - lo) + 1 == b.size()) {
      return BallIds::from_runs({{lo, hi + 1}});
    }
  }
  std::vector<NodeId> ids;
  ids.reserve(b.size());
  for (const Neighbor& nb : b) ids.push_back(nb.v);
  std::sort(ids.begin(), ids.end());
  return BallIds::from_sorted_ids(std::move(ids));
}

Dist DenseProximityIndex::kth_radius(NodeId u, std::size_t k) const {
  RON_CHECK(k >= 1 && k <= n_, "kth_radius: k out of range");
  return row(u)[k - 1].d;
}

}  // namespace ron
