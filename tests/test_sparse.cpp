// Differential and guardrail tests for the sparse proximity backend, the
// compact (sealed) ring storage, and the streaming snapshot path.
//
// The load-bearing contract: SparseProximityIndex answers every portable
// ProximityIndex query bit-identically to DenseProximityIndex — not
// approximately, not within an ulp. Every distance either backend reports
// is a metric.distance() probe and every member set uses the canonical
// BallIds form, so the dense backend (exhaustive rows) serves as the oracle
// here across several metric families and seeds. On top of that sits the
// full-build differential: the same scenario built through either backend
// must serialize to byte-identical ring and directory snapshots.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "churn/overlay_mutator.h"
#include "core/rings.h"
#include "metric/dense_metric.h"
#include "metric/proximity.h"
#include "metric/sparse_proximity.h"
#include "oracle/snapshot.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"
#include "served/served_state.h"

namespace ron {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_sparse_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  RON_CHECK(is.good(), "cannot open '" << path << "'");
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  RON_CHECK(os.good(), "cannot write '" << path << "'");
}

std::vector<NodeId> members_of(const BallIds& ids) {
  std::vector<NodeId> out;
  out.reserve(ids.size());
  ids.for_each([&](NodeId v) { out.push_back(v); });
  return out;
}

// The differential corpus: every family here has a PointSource (line, ring,
// and the generic coordinate scan), exercised at three seeds each. Small n
// keeps the dense oracle cheap; the bit-identity claim does not depend on n.
std::vector<std::string> differential_specs() {
  std::vector<std::string> specs;
  for (const char* seed : {"1", "5", "9"}) {
    // base chosen so base^(n-1) stays far below the overflow guard.
    specs.push_back(std::string("metric=geoline,n=257,base=1.01,seed=") +
                    seed);
    specs.push_back(std::string("metric=uniline,n=300,seed=") + seed);
    specs.push_back(std::string("metric=ring,n=256,seed=") + seed);
    specs.push_back(std::string("metric=euclid,n=200,dim=3,seed=") + seed);
  }
  return specs;
}

// --- Differential: sparse vs dense, query by query -------------------------

TEST(SparseDifferential, ScalarsMatchDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    EXPECT_FALSE(sparse.has_full_rows());
    EXPECT_EQ(sparse.n(), dense.n());
    EXPECT_EQ(sparse.dmin(), dense.dmin());
    EXPECT_EQ(sparse.dmax(), dense.dmax());
    EXPECT_EQ(sparse.aspect_ratio(), dense.aspect_ratio());
    EXPECT_EQ(sparse.num_levels(), dense.num_levels());
    EXPECT_EQ(sparse.num_scales(), dense.num_scales());
  }
}

TEST(SparseDifferential, KthRadiusMatchesDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    const std::size_t n = dense.n();
    // k values straddle the truncated-row cache boundary (16/17) and the
    // on-demand regime up to k = n.
    const std::size_t ks[] = {1, 2, 7, 16, 17, 33, n / 2, n - 1, n};
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t k : ks) {
        if (k < 1 || k > n) continue;
        ASSERT_EQ(sparse.kth_radius(u, k), dense.kth_radius(u, k))
            << "u=" << u << " k=" << k;
      }
    }
  }
}

TEST(SparseDifferential, LevelAndRankRadiiMatchDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    for (NodeId u = 0; u < dense.n(); u += 7) {
      for (int i = 0; i <= dense.num_levels() + 1; ++i) {
        ASSERT_EQ(sparse.level_radius(u, i), dense.level_radius(u, i))
            << "u=" << u << " i=" << i;
        ASSERT_EQ(sparse.level_radius_prev(u, i),
                  dense.level_radius_prev(u, i))
            << "u=" << u << " i=" << i;
      }
      for (double eps : {1.0, 0.5, 0.25, 0.1, 0.01}) {
        ASSERT_EQ(sparse.rank_radius(u, eps), dense.rank_radius(u, eps))
            << "u=" << u << " eps=" << eps;
      }
    }
  }
}

TEST(SparseDifferential, BallQueriesMatchDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    const std::size_t n = dense.n();
    for (NodeId u = 0; u < n; u += 5) {
      for (std::size_t k : {std::size_t{1}, std::size_t{8}, n / 4, n}) {
        if (k < 1) continue;
        const Dist r = dense.kth_radius(u, k);
        ASSERT_EQ(sparse.ball_size(u, r), dense.ball_size(u, r))
            << "u=" << u << " r=" << r;
        const BallIds ds = dense.ball_ids(u, r);
        const BallIds ss = sparse.ball_ids(u, r);
        // Same members AND the same canonical representation: a mixed
        // runs/ids answer would break bit-identical snapshot writers.
        ASSERT_EQ(ss.runs_backed(), ds.runs_backed())
            << "u=" << u << " r=" << r;
        ASSERT_EQ(members_of(ss), members_of(ds)) << "u=" << u << " r=" << r;
        // Just inside the ball boundary the membership count drops
        // identically on both backends.
        const Dist r_in = r * (1.0 - 1e-12);
        ASSERT_EQ(sparse.ball_size(u, r_in), dense.ball_size(u, r_in))
            << "u=" << u << " r_in=" << r_in;
      }
    }
  }
}

TEST(SparseDifferential, RowPrefixMatchesDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    const std::size_t n = dense.n();
    for (NodeId u = 0; u < n; u += 11) {
      for (std::size_t k : {std::size_t{1}, std::size_t{16}, std::size_t{33},
                            n}) {
        const auto dp = dense.row_prefix(u, k);
        const auto sp = sparse.row_prefix(u, k);
        ASSERT_EQ(sp.size(), dp.size()) << "u=" << u << " k=" << k;
        for (std::size_t i = 0; i < dp.size(); ++i) {
          ASSERT_EQ(sp[i].d, dp[i].d) << "u=" << u << " k=" << k << " i=" << i;
          ASSERT_EQ(sp[i].v, dp[i].v) << "u=" << u << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(SparseDifferential, NearestInMatchesDense) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=euclid,n=150,dim=2,seed=3");
  const auto metric = MetricRegistry::global().make(spec);
  const DenseProximityIndex dense(*metric);
  const SparseProximityIndex sparse(*metric);
  const std::vector<NodeId> candidates{140, 3, 77, 9, 58, 101, 2};
  for (NodeId u = 0; u < dense.n(); ++u) {
    ASSERT_EQ(sparse.nearest_in(u, candidates), dense.nearest_in(u, candidates))
        << "u=" << u;
  }
  EXPECT_EQ(sparse.nearest_in(0, std::vector<NodeId>{}), kInvalidNode);
}

TEST(SparseDifferential, MemoryIsLinearNotQuadratic) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=uniline,n=2048,seed=1");
  const auto metric = MetricRegistry::global().make(spec);
  const SparseProximityIndex sparse(*metric);
  // Truncated rows: n * kTruncatedRowLen neighbors, nowhere near n^2.
  EXPECT_LE(sparse.memory_bytes(),
            2 * 2048 * SparseProximityIndex::kTruncatedRowLen *
                sizeof(ProximityIndex::Neighbor));
  EXPECT_GT(sparse.memory_bytes(), 0u);
}

// --- Differential: whole builds serialize byte-identically -----------------

TEST(SparseDifferential, FullBuildSnapshotsAreByteIdentical) {
  // Dense path: mutable rings. Sparse path: sealed compact rings. The spec,
  // overlay, directory — and therefore the serialized bytes — must agree.
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=600,base=1.005,seed=4");
  ScenarioBuilder dense_b(spec, 0, ProxBackend::kDense);
  ScenarioBuilder sparse_b(spec, 0, ProxBackend::kSparse);
  ASSERT_FALSE(dense_b.sparse_backend());
  ASSERT_TRUE(sparse_b.sparse_backend());

  TempFile dense_rings("rings_dense");
  TempFile sparse_rings("rings_sparse");
  save_rings(dense_b.rings(), dense_rings.path(), spec);
  save_rings(sparse_b.rings(), sparse_rings.path(), spec);
  EXPECT_TRUE(dense_b.rings().sealed() == false);
  EXPECT_TRUE(sparse_b.rings().sealed());
  EXPECT_EQ(slurp(dense_rings.path()), slurp(sparse_rings.path()));

  TempFile dense_dir("dir_dense");
  TempFile sparse_dir("dir_sparse");
  save_directory(spec, dense_b.make_directory(32, 2), dense_dir.path());
  save_directory(spec, sparse_b.make_directory(32, 2), sparse_dir.path());
  EXPECT_EQ(slurp(dense_dir.path()), slurp(sparse_dir.path()));
}

// --- Compact (sealed) ring storage -----------------------------------------

RingsOfNeighbors sample_rings(std::size_t n) {
  RingsOfNeighbors rings(n);
  for (NodeId u = 0; u < n; ++u) {
    Ring near;
    near.scale = 1.0 + u;
    for (NodeId v = 0; v < n; v += 3) {
      if (v != u) near.members.push_back(v);
    }
    rings.add_ring(u, near);
    Ring far;
    far.scale = 100.0 + u;
    far.members = {static_cast<NodeId>((u + 1) % n),
                   static_cast<NodeId>((u * 7 + 2) % n)};
    rings.add_ring(u, far);
  }
  return rings;
}

TEST(CompactRings, SealedAccessorsMatchMutable) {
  const std::size_t n = 40;
  RingsOfNeighbors mut = sample_rings(n);
  RingsOfNeighbors sealed = sample_rings(n);
  sealed.seal();
  ASSERT_TRUE(sealed.sealed());
  EXPECT_EQ(sealed.max_out_degree(), mut.max_out_degree());
  EXPECT_EQ(sealed.avg_out_degree(), mut.avg_out_degree());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(sealed.num_rings(u), mut.num_rings(u)) << "u=" << u;
    ASSERT_EQ(sealed.out_degree(u), mut.out_degree(u)) << "u=" << u;
    for (std::size_t i = 0; i < mut.num_rings(u); ++i) {
      ASSERT_EQ(sealed.ring_scale(u, i), mut.ring_scale(u, i));
      std::vector<NodeId> got, want;
      sealed.visit_ring(u, i, [&](NodeId v) { got.push_back(v); });
      mut.visit_ring(u, i, [&](NodeId v) { want.push_back(v); });
      ASSERT_EQ(got, want) << "u=" << u << " ring=" << i;
      for (NodeId v : want) {
        ASSERT_TRUE(sealed.ring_contains(u, i, v));
      }
    }
    std::vector<NodeId> got, want;
    sealed.visit_neighbors(u, [&](NodeId v) { got.push_back(v); });
    mut.visit_neighbors(u, [&](NodeId v) { want.push_back(v); });
    ASSERT_EQ(got, want) << "u=" << u;
    for (NodeId v : want) {
      ASSERT_EQ(sealed.ring_level_of(u, v), mut.ring_level_of(u, v));
    }
  }
}

TEST(CompactRings, SealedSnapshotIsByteIdentical) {
  const std::size_t n = 40;
  RingsOfNeighbors mut = sample_rings(n);
  RingsOfNeighbors sealed = sample_rings(n);
  sealed.seal();
  TempFile a("rings_mut");
  TempFile b("rings_sealed");
  save_rings(mut, a.path());
  save_rings(sealed, b.path());
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(CompactRings, MutationAfterSealThrows) {
  RingsOfNeighbors rings = sample_rings(8);
  rings.seal();
  rings.seal();  // idempotent
  EXPECT_THROW(rings.add_ring(0, Ring{1.0, {2}}), Error);
  EXPECT_THROW(rings.all_neighbors(0), Error);
  EXPECT_THROW(rings.set_ring_scale(0, 0, 2.0), Error);
}

TEST(CompactRings, SealedStorageIsSmaller) {
  // The compact blobs must beat the vector-of-vectors form on a real
  // overlay shape — that is the whole point of sealing.
  const std::size_t n = 256;
  RingsOfNeighbors mut = sample_rings(n);
  RingsOfNeighbors sealed = sample_rings(n);
  const std::uint64_t before = mut.memory_bytes();
  sealed.seal();
  EXPECT_LT(sealed.memory_bytes(), before);
}

// --- Guardrails -------------------------------------------------------------

TEST(SparseGuardrails, DenseIndexRefusesHugeN) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=20001,base=1.0001,seed=1");
  const auto metric = MetricRegistry::global().make(spec);
  EXPECT_THROW(make_proximity_index(*metric, ProxBackend::kDense), Error);
  // Auto picks sparse at this size — construction succeeds, O(n) memory.
  const auto prox = make_proximity_index(*metric);
  EXPECT_FALSE(prox->has_full_rows());
}

TEST(SparseGuardrails, DenseMetricRefusesHugeN) {
  EXPECT_THROW(DenseMetric(DenseMetric::kMaxDenseMetricNodes + 1,
                           std::vector<Dist>{}),
               Error);
  EXPECT_THROW(DenseMetric(DenseMetric::kMaxDenseMetricNodes + 1,
                           [](NodeId, NodeId) { return 1.0; }),
               Error);
}

TEST(SparseGuardrails, SparseRequiresPointSource) {
  // An explicit matrix has no coordinate structure to query implicitly.
  std::vector<Dist> m{0, 1, 3, 1, 0, 2, 3, 2, 0};
  DenseMetric dm(3, m);
  EXPECT_THROW(SparseProximityIndex{dm}, Error);
  EXPECT_THROW(make_proximity_index(dm, ProxBackend::kSparse), Error);
  // Auto degrades to dense for such families.
  EXPECT_TRUE(make_proximity_index(dm)->has_full_rows());
}

TEST(SparseGuardrails, ParseBackend) {
  EXPECT_EQ(parse_prox_backend("auto"), ProxBackend::kAuto);
  EXPECT_EQ(parse_prox_backend("dense"), ProxBackend::kDense);
  EXPECT_EQ(parse_prox_backend("sparse"), ProxBackend::kSparse);
  EXPECT_THROW(parse_prox_backend("fast"), Error);
  EXPECT_THROW(parse_prox_backend(""), Error);
}

TEST(SparseGuardrails, AutoCutoverAtThreshold) {
  const ScenarioSpec below =
      ScenarioSpec::parse("metric=uniline,n=512,seed=1");
  const ScenarioSpec above =
      ScenarioSpec::parse("metric=uniline,n=4097,seed=1");
  const auto m_below = MetricRegistry::global().make(below);
  const auto m_above = MetricRegistry::global().make(above);
  EXPECT_TRUE(make_proximity_index(*m_below)->has_full_rows());
  EXPECT_FALSE(make_proximity_index(*m_above)->has_full_rows());
}

TEST(SparseGuardrails, FullRowConsumersThrowNamedError) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=uniline,n=300,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  ASSERT_TRUE(builder.sparse_backend());
  // row()/ball() are dense-only.
  EXPECT_THROW(builder.prox().row(0), Error);
  EXPECT_THROW(builder.prox().ball(0, 1.0), Error);
  // The labeling pipeline needs full rows.
  EXPECT_THROW(builder.neighbor_system(), Error);
  // Churn needs full rows: the mutator's rebuild walks whole sorted rows.
  EXPECT_THROW(OverlayMutator(builder.prox(), builder.spec(),
                              ObjectDirectory(spec.n)),
               Error);
  // The overlay itself works — sparse is a serving backend, not a stub.
  EXPECT_EQ(builder.rings().n(), 300u);
  EXPECT_TRUE(builder.rings().sealed());
}

// --- Streaming snapshots ----------------------------------------------------

TEST(StreamingSnapshot, RingsRoundTrip) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=ring,n=128,seed=6");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("stream_rings");
  save_rings(builder.rings(), snap.path(), spec);

  const SnapshotInfo info = inspect_snapshot(snap.path());
  EXPECT_EQ(info.kind, SnapshotKind::kRings);
  EXPECT_EQ(info.version, kSnapshotVersion);

  ScenarioSpec loaded_spec;
  const RingsOfNeighbors loaded = load_rings(snap.path(), &loaded_spec);
  EXPECT_EQ(loaded_spec.to_string(), spec.to_string());
  ASSERT_EQ(loaded.n(), builder.rings().n());
  for (NodeId u = 0; u < loaded.n(); ++u) {
    ASSERT_EQ(loaded.num_rings(u), builder.rings().num_rings(u));
    std::vector<NodeId> got, want;
    loaded.visit_neighbors(u, [&](NodeId v) { got.push_back(v); });
    builder.rings().visit_neighbors(u, [&](NodeId v) { want.push_back(v); });
    ASSERT_EQ(got, want) << "u=" << u;
  }
}

TEST(StreamingSnapshot, DirectoryRoundTrip) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=uniline,n=200,seed=8");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  const ObjectDirectory dir = builder.make_directory(16, 2);
  TempFile snap("stream_dir");
  save_directory(spec, dir, snap.path());

  const LoadedDirectory loaded = load_directory(snap.path());
  EXPECT_EQ(loaded.spec.to_string(), spec.to_string());
  EXPECT_EQ(loaded.directory.n(), dir.n());
  EXPECT_EQ(loaded.directory.num_objects(), dir.num_objects());
}

TEST(StreamingSnapshot, CorruptPayloadFailsChecksum) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=ring,n=64,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("corrupt");
  save_rings(builder.rings(), snap.path(), spec);
  std::vector<char> bytes = slurp(snap.path());
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit near the tail
  dump(snap.path(), bytes);
  EXPECT_THROW(load_rings(snap.path()), Error);
  EXPECT_THROW(inspect_snapshot(snap.path()), Error);
}

TEST(StreamingSnapshot, TruncationAndTrailingGarbageFail) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=ring,n=64,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("trunc");
  save_rings(builder.rings(), snap.path(), spec);
  const std::vector<char> bytes = slurp(snap.path());

  std::vector<char> shorter(bytes.begin(), bytes.end() - 5);
  dump(snap.path(), shorter);
  EXPECT_THROW(load_rings(snap.path()), Error);

  std::vector<char> longer = bytes;
  longer.insert(longer.end(), {'j', 'u', 'n', 'k'});
  dump(snap.path(), longer);
  EXPECT_THROW(load_rings(snap.path()), Error);
}

TEST(StreamingSnapshot, V1RingsStillLoad) {
  // Old snapshots in the wild carry no embedded spec and use the v1
  // checksum domain; the streaming loader must still read them. The
  // committed fixture holds six nodes' rings (see test_oracle's golden
  // section for its exact content).
  const std::string path =
      std::string(RON_TEST_DATA_DIR) + "/golden_rings_v1.snapshot";
  const SnapshotInfo info = inspect_snapshot(path);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_EQ(info.kind, SnapshotKind::kRings);
  ScenarioSpec spec;
  const RingsOfNeighbors loaded = load_rings(path, &spec);
  EXPECT_TRUE(spec.family.empty());
  ASSERT_EQ(loaded.n(), 6u);
  std::size_t rings = 0;
  for (NodeId u = 0; u < loaded.n(); ++u) rings += loaded.num_rings(u);
  EXPECT_EQ(rings, 5u);
}

// --- Serving the sparse backend ---------------------------------------------

TEST(SparseServed, DirectoryServesStaticallyWithoutChurn) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=600,base=1.005,seed=4");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("served_dir");
  save_directory(spec, builder.make_directory(16, 2), snap.path());

  ServedStateOptions opts;
  opts.backend = ProxBackend::kSparse;
  const ServedState state = load_served_state(snap.path(), opts);
  EXPECT_TRUE(state.can_locate());
  EXPECT_FALSE(state.can_churn());
  EXPECT_FALSE(state.can_estimate());
  EXPECT_EQ(state.engine->n(), 600u);
}

}  // namespace
}  // namespace ron
