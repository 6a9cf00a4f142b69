// Tests for metric spaces, generators, the proximity index, and the
// dimension estimators (including the paper's separating example: the
// geometric line has O(1) doubling dimension but Θ(log n) grid dimension).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "metric/clustered.h"
#include "metric/dense_metric.h"
#include "metric/dimension.h"
#include "metric/euclidean.h"
#include "metric/line_metrics.h"
#include "metric/proximity.h"

namespace ron {
namespace {

TEST(DenseMetric, AcceptsValidMatrix) {
  // 3 points on a line: 0, 1, 3.
  std::vector<Dist> m{0, 1, 3, 1, 0, 2, 3, 2, 0};
  DenseMetric dm(3, m);
  EXPECT_EQ(dm.n(), 3u);
  EXPECT_EQ(dm.distance(0, 2), 3.0);
  validate_metric(dm);
}

TEST(DenseMetric, RejectsAsymmetric) {
  std::vector<Dist> m{0, 1, 2, 0};
  EXPECT_THROW(DenseMetric(2, m), Error);
}

TEST(DenseMetric, RejectsNonzeroDiagonal) {
  std::vector<Dist> m{1, 1, 1, 0};
  EXPECT_THROW(DenseMetric(2, m), Error);
}

TEST(DenseMetric, RejectsWrongSize) {
  EXPECT_THROW(DenseMetric(3, std::vector<Dist>(4, 0.0)), Error);
}

TEST(ValidateMetric, CatchesTriangleViolation) {
  // d(0,2)=10 but d(0,1)+d(1,2)=2: not a metric.
  std::vector<Dist> m{0, 1, 10, 1, 0, 1, 10, 1, 0};
  DenseMetric dm(3, m);  // pairwise checks pass
  EXPECT_THROW(validate_metric(dm), Error);
}

TEST(Euclidean, DistanceIsL2) {
  EuclideanMetric m({0, 0, 3, 4}, 2);
  EXPECT_DOUBLE_EQ(m.distance(0, 1), 5.0);
}

TEST(Euclidean, LInfNorm) {
  EuclideanMetric m({0, 0, 3, 4}, 2, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(m.distance(0, 1), 4.0);
}

TEST(Euclidean, RandomCubeIsValidMetric) {
  auto m = random_cube_metric(40, 3, /*seed=*/7);
  EXPECT_EQ(m.n(), 40u);
  validate_metric(m);
}

TEST(Euclidean, GridMetricShape) {
  auto m = grid_metric(4, 3);
  EXPECT_EQ(m.n(), 12u);
  EXPECT_DOUBLE_EQ(m.distance(0, 3), 3.0);   // along a row
  EXPECT_DOUBLE_EQ(m.distance(0, 4), 1.0);   // one row down
}

TEST(GeometricLine, MatchesPowers) {
  GeometricLineMetric m(10, 2.0);
  EXPECT_DOUBLE_EQ(m.distance(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.distance(0, 9), 511.0);
  validate_metric(m);
}

TEST(GeometricLine, RejectsOverflow) {
  EXPECT_THROW(GeometricLineMetric(2000, 2.0), Error);
}

TEST(GeometricLine, SmallBaseAllowsLargerN) {
  GeometricLineMetric m(600, 1.5);
  EXPECT_EQ(m.n(), 600u);
  EXPECT_GT(m.distance(0, 599), 1e100);  // super-polynomial aspect ratio
}

TEST(LineAndRing, Distances) {
  UniformLineMetric line(10);
  EXPECT_DOUBLE_EQ(line.distance(2, 7), 5.0);
  RingMetric ring(10);
  EXPECT_DOUBLE_EQ(ring.distance(0, 7), 3.0);  // wraps around
  EXPECT_DOUBLE_EQ(ring.distance(0, 5), 5.0);
  validate_metric(ring);
}

TEST(Clustered, GeneratesRequestedSize) {
  ClusteredParams p;
  p.clusters = 4;
  p.per_cluster = 8;
  auto m = clustered_metric(p, 13);
  EXPECT_EQ(m.n(), 32u);
  validate_metric(m);
}

TEST(Clustered, ClusterStructureVisible) {
  ClusteredParams p;
  p.clusters = 4;
  p.per_cluster = 8;
  auto m = clustered_metric(p, 13);
  // Intra-cluster distances should be far below typical inter-cluster ones.
  double intra_max = 0.0;
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) {
      intra_max = std::max(intra_max, m.distance(u, v));
    }
  }
  const double inter = m.distance(0, 8);
  EXPECT_LT(intra_max, p.cluster_side * 4.0);
  EXPECT_GT(inter, intra_max);
}

// ---------------------------------------------------------------------------
// ProximityIndex
// ---------------------------------------------------------------------------

class ProximityTest : public ::testing::Test {
 protected:
  ProximityTest() : metric_(random_cube_metric(64, 2, 5)), prox_(metric_) {}
  EuclideanMetric metric_;
  DenseProximityIndex prox_;
};

TEST_F(ProximityTest, RowSortedAndStartsAtSelf) {
  for (NodeId u = 0; u < prox_.n(); ++u) {
    auto row = prox_.row(u);
    EXPECT_EQ(row[0].v, u);
    EXPECT_EQ(row[0].d, 0.0);
    for (std::size_t k = 1; k < row.size(); ++k) {
      EXPECT_LE(row[k - 1].d, row[k].d);
    }
  }
}

TEST_F(ProximityTest, BallIsExactClosedBall) {
  const NodeId u = 3;
  const Dist r = prox_.kth_radius(u, 10);
  auto b = prox_.ball(u, r);
  for (const auto& nb : b) EXPECT_LE(nb.d, r);
  // Every node within r is in the ball.
  std::size_t expect = 0;
  for (NodeId v = 0; v < prox_.n(); ++v) {
    if (metric_.distance(u, v) <= r) ++expect;
  }
  EXPECT_EQ(b.size(), expect);
}

TEST_F(ProximityTest, BallWithNegativeRadiusEmpty) {
  EXPECT_EQ(prox_.ball(0, -1.0).size(), 0u);
}

TEST_F(ProximityTest, KthRadiusMonotone) {
  for (std::size_t k = 2; k <= prox_.n(); ++k) {
    EXPECT_GE(prox_.kth_radius(7, k), prox_.kth_radius(7, k - 1));
  }
}

TEST_F(ProximityTest, RankRadiusMatchesDefinition) {
  // r_u(eps) is the radius of the smallest ball with >= eps*n nodes.
  const NodeId u = 11;
  for (double eps : {0.1, 0.25, 0.5, 1.0}) {
    const Dist r = prox_.rank_radius(u, eps);
    const double need = eps * static_cast<double>(prox_.n());
    EXPECT_GE(static_cast<double>(prox_.ball_size(u, r)) + 1e-9, need);
    // A slightly smaller ball must not suffice.
    const Dist r_minus = std::nextafter(r, 0.0);
    EXPECT_LT(static_cast<double>(prox_.ball_size(u, r_minus)), need);
  }
}

TEST_F(ProximityTest, LevelRadiusConventions) {
  const NodeId u = 0;
  // i = 0: ball must contain all n nodes.
  EXPECT_EQ(prox_.ball_size(u, prox_.level_radius(u, 0)), prox_.n());
  // r_{u,-1} = +inf convention.
  EXPECT_EQ(prox_.level_radius_prev(u, 0), kInfDist);
  EXPECT_EQ(prox_.level_radius_prev(u, 3), prox_.level_radius(u, 2));
  // Radii shrink with i.
  for (int i = 1; i <= prox_.num_levels(); ++i) {
    EXPECT_LE(prox_.level_radius(u, i), prox_.level_radius(u, i - 1));
  }
}

TEST(Proximity, ParallelBuildMatchesSingleThreaded) {
  // Rows, extrema, and derived counts must be bit-identical for any thread
  // count (the build partitions rows; it never partitions work within a row).
  auto metric = random_cube_metric(73, 3, 21);
  DenseProximityIndex serial(metric, 1);
  for (unsigned threads : {2u, 3u, 8u}) {
    DenseProximityIndex parallel(metric, threads);
    EXPECT_EQ(parallel.dmin(), serial.dmin());
    EXPECT_EQ(parallel.dmax(), serial.dmax());
    EXPECT_EQ(parallel.num_levels(), serial.num_levels());
    EXPECT_EQ(parallel.num_scales(), serial.num_scales());
    for (NodeId u = 0; u < serial.n(); ++u) {
      auto rs = serial.row(u);
      auto rp = parallel.row(u);
      ASSERT_EQ(rp.size(), rs.size());
      for (std::size_t k = 0; k < rs.size(); ++k) {
        EXPECT_EQ(rp[k].v, rs[k].v);
        EXPECT_EQ(rp[k].d, rs[k].d);
      }
    }
  }
}

TEST(Proximity, LevelRadiusExactIntegerRanks) {
  // level_radius must agree with the integer reference k_i = ceil(n / 2^i),
  // computed here independently by iterated ceiling-halving
  // (ceil(ceil(n/2)/2) == ceil(n/4), etc.), for every level and well past
  // num_levels. Prime n exercises the non-divisible case on every level;
  // power-of-two n exercises the exactly-divisible one.
  for (std::size_t n : {97u, 128u}) {
    auto metric = random_cube_metric(n, 2, 7);
    DenseProximityIndex prox(metric);
    std::size_t k_ref = n;
    for (int i = 0; i <= prox.num_levels() + 4; ++i) {
      for (NodeId u : {NodeId{0}, static_cast<NodeId>(n / 2),
                       static_cast<NodeId>(n - 1)}) {
        EXPECT_EQ(prox.level_radius(u, i), prox.kth_radius(u, k_ref))
            << "n=" << n << " u=" << u << " i=" << i << " k=" << k_ref;
      }
      k_ref = (k_ref + 1) / 2;
    }
    // Far past the last level the ball degenerates to the node itself.
    EXPECT_EQ(prox.level_radius(0, 1000), 0.0);
  }
}

TEST_F(ProximityTest, AspectRatioAndScales) {
  EXPECT_GT(prox_.dmin(), 0.0);
  EXPECT_GT(prox_.dmax(), prox_.dmin());
  EXPECT_GE(prox_.num_scales(), 1);
  EXPECT_EQ(prox_.num_levels(), 6);  // ceil(log2 64)
}

TEST_F(ProximityTest, NearestIn) {
  std::vector<NodeId> cand{5, 9, 23};
  const NodeId near = prox_.nearest_in(1, cand);
  for (NodeId c : cand) {
    EXPECT_LE(prox_.dist(1, near), prox_.dist(1, c));
  }
  EXPECT_EQ(prox_.nearest_in(1, std::span<const NodeId>{}), kInvalidNode);
}

// Dense ball_ids skips the sort when the ball is one id run; whichever path
// it takes, the result must be the sort-then-canonicalize reference.
struct BallKinds {
  std::size_t single_run = 0;
  std::size_t two_runs = 0;
  std::size_t ids_backed = 0;
};

void expect_ball_ids_match_sorted_reference(const MetricSpace& metric,
                                            BallKinds& kinds) {
  DenseProximityIndex prox(metric);
  for (NodeId u = 0; u < prox.n(); ++u) {
    for (int i = 0; i <= prox.num_levels(); ++i) {
      const Dist r = prox.level_radius(u, i);
      std::vector<NodeId> ref_ids;
      for (const auto& nb : prox.ball(u, r)) ref_ids.push_back(nb.v);
      std::sort(ref_ids.begin(), ref_ids.end());
      const BallIds ref = BallIds::from_sorted_ids(std::move(ref_ids));
      const BallIds got = prox.ball_ids(u, r);
      ASSERT_EQ(got.size(), ref.size()) << "u=" << u << " i=" << i;
      ASSERT_EQ(got.runs_backed(), ref.runs_backed()) << "u=" << u
                                                      << " i=" << i;
      if (ref.runs_backed()) {
        ASSERT_EQ(got.runs().size(), ref.runs().size());
        for (std::size_t k = 0; k < ref.runs().size(); ++k) {
          EXPECT_EQ(got.runs()[k].begin, ref.runs()[k].begin);
          EXPECT_EQ(got.runs()[k].end, ref.runs()[k].end);
        }
        ++(ref.runs().size() == 1 ? kinds.single_run : kinds.two_runs);
      } else {
        EXPECT_TRUE(std::equal(got.ids().begin(), got.ids().end(),
                               ref.ids().begin(), ref.ids().end()))
            << "u=" << u << " i=" << i;
        ++kinds.ids_backed;
      }
    }
  }
}

TEST(Proximity, DenseBallIdsMatchSortedReference) {
  // Geometric line: every ball is one run (the sort-free path).
  BallKinds line;
  expect_ball_ids_match_sorted_reference(GeometricLineMetric(96, 1.3), line);
  EXPECT_GT(line.single_run, 0u);
  EXPECT_EQ(line.two_runs + line.ids_backed, 0u);
  // Ring: balls across node 0 wrap into two runs (the fallback sort).
  BallKinds ring;
  expect_ball_ids_match_sorted_reference(RingMetric(75), ring);
  EXPECT_GT(ring.single_run, 0u);
  EXPECT_GT(ring.two_runs, 0u);
  // Clustered cloud: scattered ids, stored as the sorted id vector.
  ClusteredParams p;
  p.clusters = 6;
  p.per_cluster = 12;
  BallKinds cloud;
  expect_ball_ids_match_sorted_reference(clustered_metric(p, 31), cloud);
  EXPECT_GT(cloud.ids_backed, 0u);
}

TEST(Proximity, DuplicatePointsRejected) {
  EuclideanMetric m({1.0, 1.0, 1.0, 1.0}, 2);  // two identical points
  EXPECT_THROW(DenseProximityIndex p(m), Error);
}

TEST(Proximity, Lemma12_AspectRatioLowerBound) {
  // 1 + logΔ >= (log n)/alpha for every doubling metric. Check on a grid
  // (alpha ~ 2): log2(n)/alpha <= 1 + log2(aspect).
  auto m = grid_metric(16, 16);
  DenseProximityIndex prox(m);
  auto est = estimate_doubling_dimension(prox, 20, 3);
  const double lhs = 1.0 + std::log2(prox.aspect_ratio());
  const double rhs = std::log2(static_cast<double>(prox.n())) / est.dimension;
  EXPECT_GE(lhs, rhs);
}

// ---------------------------------------------------------------------------
// Dimension estimators
// ---------------------------------------------------------------------------

TEST(Dimension, GridIsLowDoubling) {
  auto m = grid_metric(16, 16);
  DenseProximityIndex prox(m);
  auto est = estimate_doubling_dimension(prox, 30, 1);
  EXPECT_GT(est.dimension, 1.0);
  EXPECT_LT(est.dimension, 4.5);  // planar grid: alpha ~= 2-3
}

TEST(Dimension, UniformLineIsOneDimensional) {
  UniformLineMetric m(128);
  DenseProximityIndex prox(m);
  auto est = estimate_doubling_dimension(prox, 30, 1);
  EXPECT_LE(est.dimension, 2.5);
}

TEST(Dimension, GeometricLineSeparatesDoublingFromGrid) {
  // The paper's example {1, 2, 4, ..., 2^n}: doubling dimension O(1),
  // grid dimension super-constant (Θ(log n) in the worst ball).
  GeometricLineMetric m(64, 2.0);
  DenseProximityIndex prox(m);
  auto doubling = estimate_doubling_dimension(prox, 64, 1);
  auto grid = estimate_grid_dimension(prox, 64, 1);
  EXPECT_LT(doubling.dimension, 3.5);
  EXPECT_GT(grid.dimension, doubling.dimension + 1.0);
}

TEST(Dimension, HigherDimCloudsRankCorrectly) {
  auto m2 = random_cube_metric(256, 2, 11);
  auto m5 = random_cube_metric(256, 5, 11);
  DenseProximityIndex p2(m2), p5(m5);
  auto e2 = estimate_doubling_dimension(p2, 25, 2);
  auto e5 = estimate_doubling_dimension(p5, 25, 2);
  EXPECT_LT(e2.mean, e5.mean);
}

}  // namespace
}  // namespace ron
