// Tests for Theorem 3.2 — the (0, delta)-triangulation — and the
// common-beacon baseline it is measured against.
//
// The headline property check: for EVERY node pair,
//   D- <= d <= D+  and  D+ / D- <= (1 + 2 delta) / (1 - 2 delta),
// because some common beacon lies within delta*d of one endpoint.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/distcode.h"
#include "labeling/beacon_triangulation.h"
#include "labeling/neighbor_system.h"
#include "labeling/triangulation.h"
#include "metric/clustered.h"
#include "metric/euclidean.h"
#include "metric/line_metrics.h"
#include "metric/proximity.h"

namespace ron {
namespace {

// Parameterised on delta itself so each case's discovered test name is
// the printed value (".../0.25"), stable from one build to the next.
class TriangulationGuarantee : public ::testing::TestWithParam<double> {};

void check_all_pairs(const MetricSpace& metric, double delta) {
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, delta);
  Triangulation tri(sys);
  const double bound = (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta);
  std::size_t checked = 0;
  for (NodeId u = 0; u < prox.n(); ++u) {
    for (NodeId v = u + 1; v < prox.n(); ++v) {
      const Dist d = prox.dist(u, v);
      const TriBounds b = triangulate(tri.label(u), tri.label(v));
      ASSERT_TRUE(b.valid()) << "no common beacon for (" << u << "," << v
                             << ")";
      EXPECT_LE(b.lower, d + 1e-9);
      EXPECT_GE(b.upper, d - 1e-9);
      EXPECT_LE(b.upper, (1.0 + 2.0 * delta) * d + 1e-9)
          << "pair (" << u << "," << v << ")";
      EXPECT_GE(b.lower, (1.0 - 2.0 * delta) * d - 1e-9);
      EXPECT_LE(b.ratio(), bound + 1e-9);
      ++checked;
    }
  }
  EXPECT_EQ(checked, prox.n() * (prox.n() - 1) / 2);
}

TEST_P(TriangulationGuarantee, EuclideanCloud) {
  auto metric = random_cube_metric(72, 2, 23);
  check_all_pairs(metric, GetParam());
}

TEST_P(TriangulationGuarantee, GeometricLine) {
  GeometricLineMetric metric(40, 2.0);
  check_all_pairs(metric, GetParam());
}

TEST_P(TriangulationGuarantee, ClusteredCloud) {
  ClusteredParams p;
  p.clusters = 6;
  p.per_cluster = 12;
  auto metric = clustered_metric(p, 5);
  check_all_pairs(metric, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Deltas, TriangulationGuarantee,
                         ::testing::Values(0.45, 0.25, 0.125));

TEST(Triangulation, LabelsMatchMetric) {
  auto metric = random_cube_metric(50, 2, 3);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  Triangulation tri(sys);
  for (NodeId u = 0; u < prox.n(); u += 7) {
    const auto& lab = tri.label(u);
    ASSERT_EQ(lab.beacons.size(), lab.dist.size());
    for (std::size_t k = 0; k < lab.beacons.size(); ++k) {
      EXPECT_DOUBLE_EQ(lab.dist[k], prox.dist(u, lab.beacons[k]));
    }
    // Sorted, unique beacon ids.
    for (std::size_t k = 1; k < lab.beacons.size(); ++k) {
      EXPECT_LT(lab.beacons[k - 1], lab.beacons[k]);
    }
  }
}

TEST(Triangulation, SelfEstimateIsZero) {
  auto metric = random_cube_metric(30, 2, 8);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  Triangulation tri(sys);
  const TriBounds b = triangulate(tri.label(4), tri.label(4));
  EXPECT_EQ(b.lower, 0.0);
  EXPECT_EQ(b.upper, 0.0);  // u is its own Y_i-neighbor at deep levels? No —
  // D+ via any beacon b is 2 d(u,b); the minimum is over the beacon nearest
  // to u, which at the deepest level is u itself (G_0 = V within the ball).
}

TEST(Triangulation, LeanProfileShrinksLabels) {
  // Ablation: on dense 2-D clouds the paper's proof constants saturate the
  // rings at laptop scale (order ~= n; see EXPERIMENTS.md); the lean profile
  // must only ever shrink them.
  const double delta = 0.25;
  auto metric = random_cube_metric(512, 2, 77);
  DenseProximityIndex prox(metric);
  NeighborSystem paper_sys(prox, delta, NeighborProfile::paper());
  NeighborSystem lean_sys(prox, delta, NeighborProfile::lean());
  Triangulation paper_tri(paper_sys), lean_tri(lean_sys);
  EXPECT_LE(lean_tri.avg_order(), paper_tri.avg_order());
  EXPECT_LE(lean_tri.order(), paper_tri.order());
}

TEST(Triangulation, OrderGrowsLogarithmicallyOnGeometricLine) {
  // On the paper's canonical sparse instance the balls hold O(log) nodes,
  // so the (1/delta)^O(alpha) * log n order bound is visible directly:
  // doubling n should add roughly a constant to the order, not double it.
  const double delta = 0.25;
  std::vector<std::size_t> ns{64, 128, 256};
  std::vector<double> orders;
  for (auto n : ns) {
    GeometricLineMetric metric(n, 1.5);
    DenseProximityIndex prox(metric);
    NeighborSystem sys(prox, delta);
    Triangulation tri(sys);
    orders.push_back(static_cast<double>(tri.order()));
  }
  EXPECT_LT(orders[2], 1.7 * orders[1]);
  EXPECT_LT(orders[2], static_cast<double>(ns[2]) / 2.0);
  EXPECT_GE(orders[2], orders[0]);
}

TEST(Triangulation, LeanProfileStillAccurateEmpirically) {
  auto metric = random_cube_metric(128, 2, 99);
  DenseProximityIndex prox(metric);
  const double delta = 0.25;
  NeighborSystem sys(prox, delta, NeighborProfile::lean());
  Triangulation tri(sys);
  double worst = 1.0;
  for (NodeId u = 0; u < prox.n(); ++u) {
    for (NodeId v = u + 1; v < prox.n(); ++v) {
      const TriBounds b = triangulate(tri.label(u), tri.label(v));
      ASSERT_TRUE(b.valid());
      worst = std::max(worst, b.ratio());
    }
  }
  // Not proof-guaranteed, but the lean rings stay accurate in practice;
  // the ablation bench quantifies this. Allow 2x the paper bound.
  EXPECT_LE(worst, 2.0 * (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta));
}

TEST(Triangulation, LabelBitsAccounting) {
  auto metric = random_cube_metric(64, 2, 9);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  Triangulation tri(sys);
  DistanceCodec codec(prox.dmin(), prox.dmax(), 0.25 / 8.0);
  const auto& lab = tri.label(0);
  EXPECT_EQ(tri.label_bits(0, codec),
            lab.beacons.size() * (6 /*ceil log2 64*/ + codec.bits()));
}

// ---------------------------------------------------------------------------
// Common-beacon baseline
// ---------------------------------------------------------------------------

TEST(BeaconTriangulation, LabelsAndEstimates) {
  auto metric = random_cube_metric(80, 2, 4);
  DenseProximityIndex prox(metric);
  BeaconTriangulation bt(prox, 10, BeaconPlacement::kUniformRandom, 42);
  EXPECT_EQ(bt.order(), 10u);
  const TriBounds b = triangulate(bt.label(3), bt.label(9));
  EXPECT_EQ(b.common, 10u);  // shared beacon set
  const Dist d = prox.dist(3, 9);
  EXPECT_LE(b.lower, d + 1e-9);
  EXPECT_GE(b.upper, d - 1e-9);
}

TEST(BeaconTriangulation, NetPlacementSpreadsBeacons) {
  auto metric = random_cube_metric(100, 2, 6);
  DenseProximityIndex prox(metric);
  BeaconTriangulation bt(prox, 12, BeaconPlacement::kNet, 7);
  EXPECT_EQ(bt.beacons().size(), 12u);
}

TEST(BeaconTriangulation, SharedBeaconsFailOnSomePairs) {
  // The motivating flaw (paper §1, "An obvious flaw..."): with a global
  // beacon set, pairs much closer than their nearest beacon get poor
  // D+/D- certificates. On a clustered metric with few beacons some pair
  // must exceed 1 + delta while Theorem 3.2's construction never does.
  ClusteredParams p;
  p.clusters = 8;
  p.per_cluster = 10;
  auto metric = clustered_metric(p, 11);
  DenseProximityIndex prox(metric);
  const double delta = 0.25;
  BeaconTriangulation bt(prox, 6, BeaconPlacement::kUniformRandom, 1);
  std::size_t bad = 0, total = 0;
  for (NodeId u = 0; u < prox.n(); ++u) {
    for (NodeId v = u + 1; v < prox.n(); ++v) {
      const TriBounds b = triangulate(bt.label(u), bt.label(v));
      if (!b.valid() || b.ratio() > 1.0 + delta) ++bad;
      ++total;
    }
  }
  EXPECT_GT(bad, 0u) << "baseline unexpectedly perfect";
  // Sanity: it is still useful on most pairs.
  EXPECT_LT(static_cast<double>(bad) / static_cast<double>(total), 0.9);
}

TEST(BeaconTriangulation, RejectsBadK) {
  auto metric = random_cube_metric(20, 2, 2);
  DenseProximityIndex prox(metric);
  EXPECT_THROW(
      BeaconTriangulation(prox, 0, BeaconPlacement::kUniformRandom, 3),
      Error);
  EXPECT_THROW(
      BeaconTriangulation(prox, 21, BeaconPlacement::kUniformRandom, 3),
      Error);
}

}  // namespace
}  // namespace ron
