// Tests for nets, covers, the doubling measure (Theorem 1.3), and
// (eps,mu)-packings (Lemma A.1) — including the paper's quantitative
// guarantees as property checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "metric/euclidean.h"
#include "metric/line_metrics.h"
#include "metric/proximity.h"
#include "net/cover.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "net/packing.h"

namespace ron {
namespace {

// --- r-nets ----------------------------------------------------------------

class NetTest : public ::testing::TestWithParam<int> {
 protected:
  NetTest() : metric_(random_cube_metric(128, 2, 21)), prox_(metric_) {}
  EuclideanMetric metric_;
  DenseProximityIndex prox_;
};

TEST_P(NetTest, SeparationAndCovering) {
  const Dist r = prox_.dmin() * std::ldexp(1.0, GetParam());
  auto net = greedy_net(prox_, r);
  // Separation: net points pairwise >= r.
  for (std::size_t i = 0; i < net.size(); ++i) {
    for (std::size_t j = i + 1; j < net.size(); ++j) {
      EXPECT_GE(prox_.dist(net[i], net[j]), r);
    }
  }
  // Covering: every node within r of the net.
  for (NodeId v = 0; v < prox_.n(); ++v) {
    Dist best = kInfDist;
    for (NodeId p : net) best = std::min(best, prox_.dist(v, p));
    EXPECT_LE(best, r);
  }
}

TEST_P(NetTest, Lemma14_PackingBound) {
  // Any r-net has at most (4r'/r)^alpha elements in any ball of radius
  // r' >= r. For a 2-D cloud take alpha <= 3 as a generous bound.
  const Dist r = prox_.dmin() * std::ldexp(1.0, GetParam());
  auto net = greedy_net(prox_, r);
  const double alpha = 3.0;
  for (NodeId u = 0; u < prox_.n(); u += 17) {
    for (Dist rp = r; rp <= prox_.dmax(); rp *= 2.0) {
      std::size_t count = 0;
      for (NodeId p : net) {
        if (prox_.dist(u, p) <= rp) ++count;
      }
      EXPECT_LE(static_cast<double>(count),
                std::pow(4.0 * rp / r, alpha) + 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, NetTest, ::testing::Values(1, 3, 5, 7));

TEST(Nets, SeededNetKeepsInitialPoints) {
  auto metric = random_cube_metric(64, 2, 3);
  DenseProximityIndex prox(metric);
  const Dist r = prox.dmax() / 8.0;
  auto coarse = greedy_net(prox, r * 2.0);
  auto fine = greedy_net(prox, r, coarse);
  std::set<NodeId> fine_set(fine.begin(), fine.end());
  for (NodeId p : coarse) {
    EXPECT_TRUE(fine_set.count(p)) << "nesting broken at " << p;
  }
}

// --- NetHierarchy ----------------------------------------------------------

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest()
      : metric_(random_cube_metric(96, 2, 8)),
        prox_(metric_),
        nets_(prox_, ceil_log2_needed()) {}

  int ceil_log2_needed() const {
    return static_cast<int>(
        std::ceil(std::log2(DenseProximityIndex(metric_).aspect_ratio()))) + 1;
  }

  EuclideanMetric metric_;
  DenseProximityIndex prox_;
  NetHierarchy nets_;
};

TEST_F(HierarchyTest, LevelZeroIsAllNodes) {
  EXPECT_EQ(nets_.members(0).size(), prox_.n());
}

TEST_F(HierarchyTest, NestedLevels) {
  for (int l = 1; l <= nets_.l_max(); ++l) {
    for (NodeId p : nets_.members(l)) {
      EXPECT_TRUE(nets_.is_member(l - 1, p))
          << "level " << l << " member " << p << " missing at " << l - 1;
    }
  }
}

TEST_F(HierarchyTest, SpacingDoubles) {
  for (int l = 1; l <= nets_.l_max(); ++l) {
    EXPECT_DOUBLE_EQ(nets_.spacing(l), 2.0 * nets_.spacing(l - 1));
  }
  EXPECT_DOUBLE_EQ(nets_.spacing(0), prox_.dmin());
}

TEST_F(HierarchyTest, NearestMemberWithinSpacing) {
  for (int l = 0; l <= nets_.l_max(); ++l) {
    for (NodeId u = 0; u < prox_.n(); ++u) {
      const NodeId p = nets_.nearest_member(l, u);
      EXPECT_TRUE(nets_.is_member(l, p));
      EXPECT_LE(nets_.nearest_member_dist(l, u), nets_.spacing(l));
      EXPECT_DOUBLE_EQ(nets_.nearest_member_dist(l, u), prox_.dist(u, p));
    }
  }
}

TEST_F(HierarchyTest, TopLevelIsTiny) {
  EXPECT_LE(nets_.members(nets_.l_max()).size(), 2u);
}

TEST_F(HierarchyTest, MembersInBallMatchesBruteForce) {
  const int l = nets_.l_max() / 2;
  const NodeId u = 5;
  const Dist R = prox_.dmax() / 3.0;
  auto got = nets_.members_in_ball(l, u, R);
  std::set<NodeId> got_set(got.begin(), got.end());
  for (NodeId p : nets_.members(l)) {
    EXPECT_EQ(got_set.count(p) > 0, prox_.dist(u, p) <= R);
  }
  // Sorted by distance from u.
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(prox_.dist(u, got[i - 1]), prox_.dist(u, got[i]));
  }
}

TEST_F(HierarchyTest, LevelForRadius) {
  EXPECT_EQ(nets_.level_for_radius(prox_.dmin() * 0.5), 0);
  EXPECT_EQ(nets_.level_for_radius(prox_.dmin() * 4.0), 2);
  EXPECT_EQ(nets_.level_for_radius(prox_.dmax() * 100.0), nets_.l_max());
}

// --- greedy covers (Lemma 1.1) ----------------------------------------------

TEST(Cover, CoversEverything) {
  auto metric = random_cube_metric(100, 2, 4);
  DenseProximityIndex prox(metric);
  std::vector<NodeId> all(prox.n());
  for (NodeId v = 0; v < prox.n(); ++v) all[v] = v;
  const Dist r = prox.dmax() / 4.0;
  auto centers = greedy_cover(prox, all, r);
  for (NodeId v : all) {
    Dist best = kInfDist;
    for (NodeId c : centers) best = std::min(best, prox.dist(v, c));
    EXPECT_LE(best, r);
  }
  // Centers pairwise separated (> r), so the count is bounded by packing.
  for (std::size_t i = 0; i < centers.size(); ++i) {
    for (std::size_t j = i + 1; j < centers.size(); ++j) {
      EXPECT_GT(prox.dist(centers[i], centers[j]), r);
    }
  }
}

TEST(Cover, Lemma11_CoverSizeBound) {
  // Covering a diameter-d set with radius d/2^k balls needs <= 2^(alpha k)
  // balls; alpha <= 3 generous for a 2-D cloud.
  auto metric = random_cube_metric(128, 2, 6);
  DenseProximityIndex prox(metric);
  std::vector<NodeId> all(prox.n());
  for (NodeId v = 0; v < prox.n(); ++v) all[v] = v;
  const double d = prox.dmax();
  for (int k = 1; k <= 3; ++k) {
    auto centers = greedy_cover(prox, all, d / std::ldexp(1.0, k));
    EXPECT_LE(static_cast<double>(centers.size()),
              std::pow(2.0, 3.2 * k) + 1.0);
  }
}

// --- doubling measure (Theorem 1.3) ------------------------------------------

class MeasureTest : public ::testing::Test {
 protected:
  static int levels_for(const ProximityIndex& p) {
    return static_cast<int>(std::ceil(std::log2(p.aspect_ratio()))) + 1;
  }
};

TEST_F(MeasureTest, SumsToOneAndPositive) {
  auto metric = random_cube_metric(80, 2, 2);
  DenseProximityIndex prox(metric);
  NetHierarchy nets(prox, levels_for(prox));
  auto mu = doubling_measure(nets);
  double total = 0.0;
  for (double w : mu) {
    EXPECT_GT(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(MeasureTest, IsDoublingOnEuclideanCloud) {
  auto metric = random_cube_metric(128, 2, 12);
  DenseProximityIndex prox(metric);
  NetHierarchy nets(prox, levels_for(prox));
  MeasureView mu(prox, doubling_measure(nets));
  // 2-D cloud: s = 2^O(alpha) with alpha ~ 2; allow a generous 2^7.
  EXPECT_LE(mu.doubling_ratio(60, 5), 128.0);
}

TEST_F(MeasureTest, IsDoublingOnGeometricLine) {
  // The exponential line is where the *counting* measure fails to be
  // doubling but the Theorem 1.3 measure succeeds.
  GeometricLineMetric metric(48, 2.0);
  DenseProximityIndex prox(metric);
  NetHierarchy nets(prox, levels_for(prox));
  MeasureView mu(prox, doubling_measure(nets));
  EXPECT_LE(mu.doubling_ratio(48, 5), 64.0);
  // Counting measure, by contrast, has ratio ~ ball sizes jumping by 1 node
  // per scale: mu(B(0, 2^k)) / mu(B(0, 2^(k-1))) stays small, but around the
  // *far end* the doubling measure must decay geometrically like the paper's
  // mu(2^i) = 2^(i-n). Check the decay qualitatively.
  const auto& w = mu.weights();
  EXPECT_GT(w[47], w[8]);  // isolated far points carry more mass
}

TEST_F(MeasureTest, ExponentialLineMassProfile) {
  GeometricLineMetric metric(32, 2.0);
  DenseProximityIndex prox(metric);
  NetHierarchy nets(prox,
                    static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1);
  MeasureView mu(prox, doubling_measure(nets));
  // Mass of the prefix {2^0..2^i} should shrink roughly geometrically with
  // distance from the top: the top point dominates.
  double prefix_half = 0.0;
  for (NodeId v = 0; v < 16; ++v) prefix_half += mu.weight(v);
  EXPECT_LT(prefix_half, 0.2);
}

// A Y ring materializes its ball once and draws every sample from it; each
// draw must be the one the per-call (u, r) form makes, from the same rng
// state, leaving the same rng state — on both canonical ball forms.
void expect_materialized_ball_draws_match(const ProximityIndex& prox,
                                         const MeasureView& mu,
                                         std::size_t& runs_balls,
                                         std::size_t& ids_balls) {
  for (NodeId u = 0; u < prox.n(); u += 7) {
    for (int j = 0; j <= prox.num_scales(); ++j) {
      const Dist r = prox.dmin() * std::ldexp(1.0, j);
      const BallIds ball = prox.ball_ids(u, r);
      ++(ball.runs_backed() ? runs_balls : ids_balls);
      Rng per_call(1000 + u);
      Rng hoisted(1000 + u);
      Rng one_uniform(1000 + u);
      for (int s = 0; s < 5; ++s) {
        EXPECT_EQ(mu.sample_in_ball(ball, r, hoisted),
                  mu.sample_in_ball(u, r, per_call))
            << "u=" << u << " j=" << j << " s=" << s;
        one_uniform.uniform();
      }
      // Same stream position afterwards: exactly one uniform per draw.
      const std::uint64_t next = one_uniform.uniform_u64(0, ~0ULL);
      EXPECT_EQ(hoisted.uniform_u64(0, ~0ULL), next);
      EXPECT_EQ(per_call.uniform_u64(0, ~0ULL), next);
    }
  }
}

TEST_F(MeasureTest, SampleFromMaterializedBallMatchesPerCallForm) {
  std::size_t runs_balls = 0;
  std::size_t ids_balls = 0;
  GeometricLineMetric line(90, 1.3);
  DenseProximityIndex line_prox(line);
  NetHierarchy line_nets(line_prox, levels_for(line_prox));
  MeasureView line_mu(line_prox, doubling_measure(line_nets));
  expect_materialized_ball_draws_match(line_prox, line_mu, runs_balls,
                                       ids_balls);
  EXPECT_GT(runs_balls, 0u);
  EXPECT_EQ(ids_balls, 0u);

  auto cloud = random_cube_metric(70, 2, 17);
  DenseProximityIndex cloud_prox(cloud);
  NetHierarchy cloud_nets(cloud_prox, levels_for(cloud_prox));
  MeasureView cloud_mu(cloud_prox, doubling_measure(cloud_nets));
  expect_materialized_ball_draws_match(cloud_prox, cloud_mu, runs_balls,
                                       ids_balls);
  EXPECT_GT(ids_balls, 0u);
}

TEST(Measure, CountingMeasureUniform) {
  auto mu = counting_measure(10);
  for (double w : mu) EXPECT_DOUBLE_EQ(w, 0.1);
}

TEST(MeasureView, BallMeasureAndRank) {
  auto metric = random_cube_metric(50, 2, 9);
  DenseProximityIndex prox(metric);
  MeasureView mu(prox, counting_measure(50));
  for (NodeId u = 0; u < 50; u += 11) {
    EXPECT_NEAR(mu.ball_measure(u, prox.dmax() + 1.0), 1.0, 1e-12);
    EXPECT_NEAR(mu.ball_measure(u, 0.0), 1.0 / 50.0, 1e-12);
    // rank_radius inverts ball_measure.
    for (double eps : {0.1, 0.4, 0.9}) {
      const Dist r = mu.rank_radius(u, eps);
      EXPECT_GE(mu.ball_measure(u, r) + 1e-12, eps);
    }
  }
  EXPECT_THROW(mu.rank_radius(0, 1.5), Error);
}

// --- (eps,mu)-packings (Lemma A.1) -------------------------------------------

class PackingTest : public ::testing::TestWithParam<double> {
 protected:
  PackingTest()
      : metric_(random_cube_metric(160, 2, 31)),
        prox_(metric_),
        mu_(prox_, counting_measure(prox_.n())) {}
  EuclideanMetric metric_;
  DenseProximityIndex prox_;
  MeasureView mu_;
};

TEST_P(PackingTest, BallsAreDisjoint) {
  EpsMuPacking packing(mu_, GetParam());
  std::set<NodeId> seen;
  for (const auto& b : packing.balls()) {
    for (NodeId v : b.members) {
      EXPECT_TRUE(seen.insert(v).second) << "node " << v << " in two balls";
    }
  }
}

TEST_P(PackingTest, BallsAreHeavy) {
  // Lemma A.1: measure >= eps / 2^O(alpha); for a 2-D cloud 16^alpha with
  // alpha <= 3 gives a conservative floor.
  EpsMuPacking packing(mu_, GetParam());
  const double floor = GetParam() / std::pow(16.0, 3.0);
  for (const auto& b : packing.balls()) {
    EXPECT_GE(b.measure, floor);
    EXPECT_EQ(b.members.empty(), false);
    // Member list matches the stated center/radius.
    for (NodeId v : b.members) {
      EXPECT_LE(prox_.dist(b.center, v), b.radius + 1e-12);
    }
  }
}

TEST_P(PackingTest, EveryNodeCertified) {
  // The constructor RON_CHECKs the Lemma A.1 coverage guarantee; verify the
  // certificate is what it claims: d(u,h) + r <= 6 r_u(eps).
  EpsMuPacking packing(mu_, GetParam());
  for (NodeId u = 0; u < prox_.n(); ++u) {
    const auto& b = packing.balls()[packing.certified_ball(u)];
    EXPECT_LE(prox_.dist(u, b.center) + b.radius,
              6.0 * packing.rank_radius(u) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, PackingTest,
                         ::testing::Values(1.0, 0.5, 0.25, 0.0625, 0.0078125));

TEST(Packing, WorksWithDoublingMeasureOnLine) {
  GeometricLineMetric metric(40, 2.0);
  DenseProximityIndex prox(metric);
  NetHierarchy nets(prox,
                    static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1);
  MeasureView mu(prox, doubling_measure(nets));
  EpsMuPacking packing(mu, 0.125);
  EXPECT_FALSE(packing.balls().empty());
  for (NodeId u = 0; u < prox.n(); ++u) {
    const auto& b = packing.balls()[packing.certified_ball(u)];
    EXPECT_LE(prox.dist(u, b.center) + b.radius,
              6.0 * packing.rank_radius(u) + 1e-9);
  }
}

TEST(Packing, RejectsBadEps) {
  auto metric = random_cube_metric(20, 2, 1);
  DenseProximityIndex prox(metric);
  MeasureView mu(prox, counting_measure(20));
  EXPECT_THROW(EpsMuPacking(mu, 0.0), Error);
  EXPECT_THROW(EpsMuPacking(mu, 1.5), Error);
}

}  // namespace
}  // namespace ron
