// Tests for the oracle serving subsystem: snapshot round trips must be
// lossless for every section kind, arbitrary corruption (a seeded
// random-mutation fuzzer: byte flips, truncations, extensions, scrambled
// windows) must throw ron::Error instead of crashing or corrupting the
// process, committed golden fixtures pin the on-disk format bit-for-bit,
// and the batched engine must answer bit-identically to the serial decoder
// for every thread count and cache configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/churn_trace.h"
#include "common/check.h"
#include "common/rng.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "location/object_directory.h"
#include "metric/clustered.h"
#include "metric/euclidean.h"
#include "metric/proximity.h"
#include "oracle/engine.h"
#include "oracle/lru.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"

namespace ron {
namespace {

/// Unique-ish temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_oracle_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Expects fn() to throw ron::Error whose message contains `token`.
template <typename Fn>
void expect_error_with(const std::string& token, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "no ron::Error thrown (wanted one naming '" << token
                  << "')";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "error message does not name '" << token << "': " << e.what();
  }
}

// --- wire primitives -------------------------------------------------------

TEST(Wire, RoundTripsScalars) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.1);
  w.str("rings");
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -0.1);  // bit-exact
  EXPECT_EQ(r.str(), "rings");
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedReadThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u32(), Error);
}

TEST(Wire, ImplausibleCountThrows) {
  WireWriter w;
  w.u64(1u << 20);  // promises a million elements, provides none
  WireReader r(w.bytes());
  EXPECT_THROW(r.read_count(4, "test element"), Error);
}

TEST(Wire, StreamPrefixShortAtEofIsNotAnError) {
  // Sniffing a short (possibly foreign) file: the prefix read reports how
  // much was there and must NOT throw — short-at-EOF is an answer.
  std::istringstream in(std::string("abc"), std::ios::binary);
  std::array<std::uint8_t, 16> buf{};
  EXPECT_EQ(read_stream_prefix(in, buf), 3u);
  EXPECT_TRUE(in.eof());
  EXPECT_FALSE(in.bad());
}

/// Streambuf that yields a fixed prefix, then fails hard (underflow
/// throws): basic_istream::read converts that into badbit — the signature
/// of a failing device, as opposed to a clean EOF.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string prefix)
      : prefix_(std::move(prefix)) {
    setg(prefix_.data(), prefix_.data(), prefix_.data() + prefix_.size());
  }

 private:
  int_type underflow() override { throw std::runtime_error("disk error"); }
  std::string prefix_;
};

TEST(Wire, StreamPrefixStreamErrorThrows) {
  // A mid-read stream FAILURE must surface as ron::Error: returning the
  // partial count would make kind-sniffing mistake a broken disk for a
  // short foreign file.
  FailingStreambuf sb("ab");
  std::istream in(&sb);
  std::array<std::uint8_t, 16> buf{};
  EXPECT_THROW(read_stream_prefix(in, buf), Error);
  EXPECT_TRUE(in.bad());
}

TEST(Wire, StreamPrefixImmediateErrorThrows) {
  FailingStreambuf sb("");
  std::istream in(&sb);
  std::array<std::uint8_t, 8> buf{};
  EXPECT_THROW(read_stream_prefix(in, buf), Error);
}

// --- fixtures --------------------------------------------------------------

/// A committed fixture under tests/data/ (see the golden section below).
std::string golden_path(const std::string& file) {
  return std::string(RON_TEST_DATA_DIR) + "/" + file;
}

RingsOfNeighbors make_rings(std::size_t n) {
  RingsOfNeighbors rings(n);
  Rng rng(17);
  for (NodeId u = 0; u < n; ++u) {
    for (int i = 0; i < 3; ++i) {
      Ring ring;
      ring.scale = std::pow(2.0, i) * 1.5;
      for (int k = 0; k < 4; ++k) {
        ring.members.push_back(static_cast<NodeId>(rng.index(n)));
      }
      rings.add_ring(u, std::move(ring));
    }
  }
  return rings;
}

struct LabelingFixture {
  LabelingFixture()
      : metric(random_cube_metric(48, 2, 23)),
        prox(metric),
        sys(prox, 0.25),
        dls(sys) {}
  EuclideanMetric metric;
  DenseProximityIndex prox;
  NeighborSystem sys;
  DistanceLabeling dls;
};

ObjectDirectory make_directory(std::size_t n) {
  ObjectDirectory dir(n);
  Rng rng(29);
  for (std::size_t k = 0; k < 6; ++k) {
    dir.publish_random("obj" + std::to_string(k), 1 + k % 3, rng);
  }
  dir.declare("unpublished");
  return dir;
}

ChurnTrace make_trace() {
  ChurnTrace trace;
  trace.objects = {"obj0", "obj1"};
  trace.ops = {{ChurnOpKind::kLeave, 3, kInvalidObject},
               {ChurnOpKind::kPublish, 5, 0},
               {ChurnOpKind::kJoin, 3, kInvalidObject},
               {ChurnOpKind::kUnpublish, 5, 0},
               {ChurnOpKind::kPublish, 9, 1}};
  return trace;
}

// --- LruShard: the per-worker result cache ----------------------------------
//
// Serving correctness, tested directly: a duplicate-key put must OVERWRITE
// the cached value (a kept-stale value would pin a pre-mutation result
// forever once epochs swap), and eviction must discard the least recently
// USED entry, counting gets as use.

TEST(LruShard, DuplicatePutOverwritesValue) {
  LruShard<int> cache(4);
  cache.put(7, 100);
  cache.put(8, 200);
  int out = 0;
  ASSERT_TRUE(cache.get(7, out));
  EXPECT_EQ(out, 100);
  cache.put(7, 111);  // same key, new value: must replace, not refresh-only
  ASSERT_TRUE(cache.get(7, out));
  EXPECT_EQ(out, 111);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruShard, EvictsLeastRecentlyUsed) {
  LruShard<int> cache(3);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  int out = 0;
  ASSERT_TRUE(cache.get(1, out));  // 1 becomes most recent; 2 is now LRU
  cache.put(4, 40);                // evicts 2
  EXPECT_FALSE(cache.get(2, out));
  ASSERT_TRUE(cache.get(1, out));
  ASSERT_TRUE(cache.get(3, out));
  ASSERT_TRUE(cache.get(4, out));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruShard, DuplicatePutRefreshesRecency) {
  LruShard<int> cache(3);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  cache.put(1, 11);  // refresh: 2 is now the LRU entry
  cache.put(4, 40);  // evicts 2, not 1
  int out = 0;
  EXPECT_FALSE(cache.get(2, out));
  ASSERT_TRUE(cache.get(1, out));
  EXPECT_EQ(out, 11);
  EXPECT_EQ(cache.keys_by_recency().back(), 1u);  // most recent last
}

TEST(LruShard, ClearDropsEntriesKeepsHitAccounting) {
  LruShard<int> cache(3);
  cache.put(1, 10);
  int out = 0;
  ASSERT_TRUE(cache.get(1, out));
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1, out));
  EXPECT_EQ(cache.hits(), 1u);  // hits are per-batch accounting, not state
}

TEST(LruShard, ZeroCapacityIsDisabledNoOp) {
  LruShard<int> cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(1, 10);
  int out = 0;
  EXPECT_FALSE(cache.get(1, out));
  EXPECT_EQ(cache.size(), 0u);
}

// --- round trips -----------------------------------------------------------

TEST(SnapshotRings, RoundTripIsLossless) {
  const RingsOfNeighbors rings = make_rings(40);
  TempFile file("rings");
  save_rings(rings, file.path());
  const RingsOfNeighbors loaded = load_rings(file.path());
  ASSERT_EQ(loaded.n(), rings.n());
  EXPECT_EQ(loaded.max_out_degree(), rings.max_out_degree());
  EXPECT_EQ(loaded.avg_out_degree(), rings.avg_out_degree());
  for (NodeId u = 0; u < rings.n(); ++u) {
    auto a = rings.rings(u);
    auto b = loaded.rings(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(rings.all_neighbors(u), loaded.all_neighbors(u));
    EXPECT_EQ(rings.pointer_bits(u), loaded.pointer_bits(u));
  }
}

TEST(SnapshotNeighborSystem, RoundTripIsLossless) {
  LabelingFixture fx;
  TempFile file("nsys");
  save_neighbor_system(fx.sys, file.path());
  const NeighborSystemSnapshot s = load_neighbor_system(file.path());
  ASSERT_EQ(s.n(), fx.prox.n());
  EXPECT_EQ(s.delta(), fx.sys.delta());
  EXPECT_EQ(s.profile().y_ball_factor, fx.sys.profile().y_ball_factor);
  ASSERT_EQ(s.num_levels(), fx.sys.num_levels());
  ASSERT_EQ(s.num_z_scales(), fx.sys.num_z_scales());
  auto eq_span = [](std::span<const NodeId> a, std::span<const NodeId> b) {
    return std::vector<NodeId>(a.begin(), a.end()) ==
           std::vector<NodeId>(b.begin(), b.end());
  };
  for (NodeId u = 0; u < s.n(); ++u) {
    for (int i = 0; i < s.num_levels(); ++i) {
      EXPECT_EQ(s.r(u, i), fx.sys.r(u, i));
      EXPECT_EQ(s.nearest_x(u, i), fx.sys.nearest_x(u, i));
      EXPECT_EQ(s.f(u, i), fx.sys.f(u, i));
      EXPECT_EQ(s.y_level(u, i), fx.sys.y_level(u, i));
      EXPECT_TRUE(eq_span(s.X(u, i), fx.sys.X(u, i)));
      EXPECT_TRUE(eq_span(s.Y(u, i), fx.sys.Y(u, i)));
    }
    for (int j = 1; j <= s.num_z_scales(); ++j) {
      EXPECT_TRUE(eq_span(s.Z(u, j), fx.sys.Z(u, j)));
    }
    EXPECT_TRUE(eq_span(s.Z_all(u), fx.sys.Z_all(u)));
    EXPECT_TRUE(eq_span(s.X_all(u), fx.sys.X_all(u)));
    EXPECT_TRUE(eq_span(s.host_set(u), fx.sys.host_set(u)));
    EXPECT_TRUE(eq_span(s.virtual_set(u), fx.sys.virtual_set(u)));
  }
}

TEST(SnapshotLabeling, RoundTripEstimatesAreBitIdentical) {
  LabelingFixture fx;
  TempFile file("labeling");
  save_labeling(fx.dls, file.path());
  const DistanceLabeling loaded = load_labeling(file.path());
  ASSERT_EQ(loaded.n(), fx.dls.n());
  EXPECT_EQ(loaded.psi_bits(), fx.dls.psi_bits());
  EXPECT_EQ(loaded.id_bits(), fx.dls.id_bits());
  EXPECT_EQ(loaded.codec().bits(), fx.dls.codec().bits());
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    EXPECT_EQ(loaded.label(u), fx.dls.label(u));
    EXPECT_EQ(loaded.label_bits(u), fx.dls.label_bits(u));
  }
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    for (NodeId v = 0; v < fx.dls.n(); ++v) {
      const Dist a =
          DistanceLabeling::estimate(fx.dls.label(u), fx.dls.label(v)).upper;
      const Dist b =
          DistanceLabeling::estimate(loaded.label(u), loaded.label(v)).upper;
      EXPECT_EQ(a, b) << "estimate differs for (" << u << "," << v << ")";
    }
  }
}

/// The spec the LabelingFixture's metric corresponds to (n = 48, seed 23).
ScenarioSpec fixture_spec() {
  return ScenarioSpec::parse("metric=euclid,n=48,seed=23");
}

TEST(SnapshotOracle, BundleRoundTripsSpecAndLabels) {
  LabelingFixture fx;
  TempFile file("oracle");
  const ScenarioSpec spec = fixture_spec();
  save_oracle(spec, "euclid-48", fx.dls, file.path());
  const SnapshotInfo info = inspect_snapshot(file.path());
  EXPECT_EQ(info.kind, SnapshotKind::kOracle);
  EXPECT_EQ(info.version, kSnapshotVersion);
  const LoadedOracle loaded = load_oracle(file.path());
  EXPECT_EQ(loaded.spec, spec);
  EXPECT_EQ(loaded.metric_name, "euclid-48");
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    EXPECT_EQ(loaded.labeling.label(u), fx.dls.label(u));
  }
}

TEST(SnapshotChurnBundle, RoundTripsSpecDirectoryAndTrace) {
  TempFile file("churn_bundle");
  ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3,overlay_seed=7");
  spec.churn_ops = 5;
  spec.churn_seed = 99;
  const ObjectDirectory dir = make_directory(32);
  const ChurnTrace trace = make_trace();
  save_churn_bundle(spec, dir, trace, file.path());
  const SnapshotInfo info = inspect_snapshot(file.path());
  EXPECT_EQ(info.kind, SnapshotKind::kChurnBundle);
  EXPECT_EQ(info.version, kSnapshotVersion);
  const LoadedChurnBundle loaded = load_churn_bundle(file.path());
  EXPECT_EQ(loaded.spec, spec);
  EXPECT_EQ(loaded.trace, trace);
  ASSERT_EQ(loaded.initial.num_objects(), dir.num_objects());
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    EXPECT_EQ(loaded.initial.name(obj), dir.name(obj));
    const auto a = loaded.initial.holders(obj);
    const auto b = dir.holders(obj);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  // Resaving the loaded bundle must reproduce the bytes (canonical form).
  TempFile resaved("churn_bundle_resave");
  save_churn_bundle(loaded.spec, loaded.initial, loaded.trace,
                    resaved.path());
  EXPECT_EQ(slurp(file.path()), slurp(resaved.path()));
}

TEST(SnapshotChurnBundle, RefusesV1AndRecipeFreeSaves) {
  TempFile file("churn_bundle_bad");
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3");
  // v1 has no spec, hence no replayable recipe. Nothing writes a v1 bundle
  // any more, so forge one — version field 1, valid v1 checksum over the
  // payload alone — and the loader must still refuse it.
  save_churn_bundle(spec, make_directory(32), make_trace(), file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[8] = 1;  // version field follows the 8-byte magic
  std::uint64_t sum =
      fnv1a64(std::vector<std::uint8_t>(bytes.begin() + kSnapshotHeaderBytes,
                                        bytes.end()));
  for (std::size_t i = 0; i < 8; ++i, sum >>= 8) {  // the header's last u64
    bytes[kSnapshotHeaderBytes - 8 + i] = static_cast<char>(sum & 0xff);
  }
  dump(file.path(), bytes);
  EXPECT_EQ(inspect_snapshot(file.path()).version, kSnapshotVersionV1);
  expect_error_with("labeled v1", [&] { load_churn_bundle(file.path()); });
  // And a family-less spec cannot rebuild anything either.
  EXPECT_THROW(save_churn_bundle(ScenarioSpec{}, make_directory(32),
                                 make_trace(), file.path()),
               Error);
}

TEST(SnapshotChurnBundle, InvalidTraceRejectedOnSaveAndLoad) {
  TempFile file("churn_trace_bad");
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3");
  ChurnTrace bad = make_trace();
  bad.ops.push_back({ChurnOpKind::kLeave, 32, kInvalidObject});  // node >= n
  EXPECT_THROW(save_churn_bundle(spec, make_directory(32), bad, file.path()),
               Error);
  bad = make_trace();
  bad.ops.push_back({ChurnOpKind::kPublish, 1, 2});  // object index >= 2
  EXPECT_THROW(bad.validate(32), Error);
  bad = make_trace();
  bad.ops.push_back({ChurnOpKind::kJoin, 1, 0});  // join with object index
  EXPECT_THROW(bad.validate(32), Error);
  bad = make_trace();
  bad.objects.push_back(bad.objects[0]);  // duplicate name
  EXPECT_THROW(bad.validate(32), Error);
}

TEST(SnapshotDirectory, ZeroHolderObjectsRoundTripBitIdentically) {
  // The zero-holder contract's snapshot half: a live name with an empty
  // holder set must survive save -> load -> save with identical bytes (the
  // payload declares the name, then lists zero holders).
  TempFile file("zero_holder");
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=16,seed=3,overlay_seed=7");
  ObjectDirectory dir(16);
  dir.publish("kept", std::vector<NodeId>{2, 5});
  dir.publish("drained", std::vector<NodeId>{1, 9});
  EXPECT_EQ(dir.unpublish_all("drained"), 2u);
  dir.declare("never_published");
  save_directory(spec, dir, file.path());
  const LoadedDirectory loaded = load_directory(file.path());
  ASSERT_EQ(loaded.directory.num_objects(), 3u);
  EXPECT_TRUE(loaded.directory.holders(dir.find("drained")).empty());
  EXPECT_TRUE(loaded.directory.holders(dir.find("never_published")).empty());
  EXPECT_EQ(loaded.directory.total_replicas(), 2u);
  TempFile resaved("zero_holder_resave");
  save_directory(loaded.spec, loaded.directory, resaved.path());
  EXPECT_EQ(slurp(file.path()), slurp(resaved.path()));
}

TEST(SnapshotSpec, EmbeddedSpecComesBackFromEveryKind) {
  // The tentpole invariant: all snapshot kinds carry the scenario. (The
  // oracle/directory kinds are covered by their bundle tests above/below.)
  LabelingFixture fx;
  const ScenarioSpec spec = fixture_spec();
  TempFile rings_file("spec_rings");
  save_rings(make_rings(48), rings_file.path(), spec);
  ScenarioSpec got;
  load_rings(rings_file.path(), &got);
  EXPECT_EQ(got, spec);
  TempFile nsys_file("spec_nsys");
  save_neighbor_system(fx.sys, nsys_file.path(), spec);
  got = ScenarioSpec{};
  load_neighbor_system(nsys_file.path(), &got);
  EXPECT_EQ(got, spec);
  TempFile lab_file("spec_labeling");
  save_labeling(fx.dls, lab_file.path(), spec);
  got = ScenarioSpec{};
  SnapshotInfo info;
  load_labeling(lab_file.path(), &got, &info);
  EXPECT_EQ(got, spec);
  EXPECT_EQ(info.version, kSnapshotVersion);
}

TEST(SnapshotSpec, MismatchedSpecNRejectedOnSave) {
  // A named family makes the spec a real recipe; its n must match the
  // artifact (empty-family specs are provenance-free and exempt).
  const RingsOfNeighbors rings = make_rings(8);
  TempFile file("spec_mismatch");
  EXPECT_THROW(
      save_rings(rings, file.path(),
                 ScenarioSpec::parse("metric=geoline,n=9,seed=1")),
      Error);
  save_rings(rings, file.path());  // empty family, default n: fine
}

// --- corruption robustness: the random-mutation fuzzer ---------------------
//
// Replaces the old hand-picked corruption matrix: instead of enumerating the
// failure modes we can think of, a seeded fuzzer applies random mutations
// (multi-byte flips — which also hit the magic/version/kind/length/checksum
// header fields, truncations, extensions, scrambled windows) to a valid
// snapshot of EVERY section kind. Each mutated file must throw ron::Error —
// never crash, hang or load garbage. The suite runs under ASan/UBSan in CI,
// so out-of-bounds parses surface even when they would not misbehave here.

/// One fuzz target: a valid snapshot file of one kind plus the loader the
/// serving path would use for it.
struct FuzzTarget {
  const char* name;
  ScenarioSpec spec;  // what save embeds
  std::function<void(const ScenarioSpec&, const std::string&)> save;
  std::function<void(const std::string&)> load;
};

std::vector<FuzzTarget> fuzz_targets(const LabelingFixture& fx) {
  // Every target saves with a non-empty embedded spec (v2), so the fuzzer
  // also mutates the spec prefix and its parser's validation paths.
  const ScenarioSpec spec24 =
      ScenarioSpec::parse("metric=geoline,n=24,seed=3,base=1.25");
  const ScenarioSpec spec32 =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3,overlay_seed=7");
  return {
      {"rings", spec24,
       [](const ScenarioSpec& s, const std::string& p) {
         save_rings(make_rings(24), p, s);
       },
       [](const std::string& p) { load_rings(p); }},
      {"neighbor_system", fixture_spec(),
       [&fx](const ScenarioSpec& s, const std::string& p) {
         save_neighbor_system(fx.sys, p, s);
       },
       [](const std::string& p) { load_neighbor_system(p); }},
      {"labeling", fixture_spec(),
       [&fx](const ScenarioSpec& s, const std::string& p) {
         save_labeling(fx.dls, p, s);
       },
       [](const std::string& p) { load_labeling(p); }},
      {"oracle", fixture_spec(),
       [&fx](const ScenarioSpec& s, const std::string& p) {
         save_oracle(s, "euclid-48", fx.dls, p);
       },
       [](const std::string& p) { load_oracle(p); }},
      {"directory", spec32,
       [](const ScenarioSpec& s, const std::string& p) {
         save_directory(s, make_directory(32), p);
       },
       [](const std::string& p) { load_directory(p); }},
      {"churn_bundle", spec32,
       [](const ScenarioSpec& s, const std::string& p) {
         save_churn_bundle(s, make_directory(32), make_trace(), p);
       },
       [](const std::string& p) { load_churn_bundle(p); }},
  };
}

/// Load-only targets: the committed v1 fixtures, which this build can read
/// but no longer write, so the legacy parse paths (no spec prefix, the old
/// meta blocks, the payload-only checksum domain) are fuzzed too.
std::vector<FuzzTarget> v1_fixture_targets() {
  const auto fixture = [](const char* file) {
    return [file](const ScenarioSpec&, const std::string& p) {
      dump(p, slurp(golden_path(file)));
    };
  };
  return {
      {"rings_v1", {}, fixture("golden_rings_v1.snapshot"),
       [](const std::string& p) { load_rings(p); }},
      {"directory_v1", {}, fixture("golden_directory_v1.snapshot"),
       [](const std::string& p) { load_directory(p); }},
      {"oracle_v1", {}, fixture("golden_oracle_v1.snapshot"),
       [](const std::string& p) { load_oracle(p); }},
  };
}

/// Applies one random mutation; guaranteed to change the bytes.
std::vector<char> mutate(const std::vector<char>& original, Rng& rng) {
  std::vector<char> bytes = original;
  switch (rng.index(4)) {
    case 0: {  // flip 1..4 bytes anywhere (header and payload alike)
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t pos = rng.index(bytes.size());
        bytes[pos] = static_cast<char>(
            bytes[pos] ^ static_cast<char>(1 + rng.index(255)));
      }
      // Two flips on the same position with the same mask cancel; force a
      // change so the identity never masquerades as a mutation.
      if (bytes == original) bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
      break;
    }
    case 1: {  // truncate to a random prefix (possibly empty)
      bytes.resize(rng.index(bytes.size()));
      break;
    }
    case 2: {  // append 1..16 random trailing bytes
      const std::size_t extra = 1 + rng.index(16);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng.index(256)));
      }
      break;
    }
    default: {  // scramble a random window of 1..32 bytes
      const std::size_t start = rng.index(bytes.size());
      const std::size_t len =
          std::min(1 + rng.index(32), bytes.size() - start);
      bool changed = false;
      for (std::size_t i = start; i < start + len; ++i) {
        const char b = static_cast<char>(rng.index(256));
        changed = changed || b != bytes[i];
        bytes[i] = b;
      }
      if (!changed) bytes[start] = static_cast<char>(bytes[start] ^ 0x01);
      break;
    }
  }
  return bytes;
}

TEST(SnapshotFuzz, RandomMutationsAlwaysThrowRonError) {
  constexpr std::size_t kMutationsPerKind = 1000;
  LabelingFixture fx;
  std::vector<FuzzTarget> targets = fuzz_targets(fx);
  for (FuzzTarget& t : v1_fixture_targets()) targets.push_back(std::move(t));
  for (const FuzzTarget& target : targets) {
    TempFile file(std::string("fuzz_") + target.name);
    target.save(target.spec, file.path());
    const std::vector<char> original = slurp(file.path());
    ASSERT_GT(original.size(), 32u) << target.name;
    // Sanity: the unmutated snapshot loads.
    ASSERT_NO_THROW(target.load(file.path())) << target.name;

    Rng rng(20260726);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < kMutationsPerKind; ++i) {
      dump(file.path(), mutate(original, rng));
      try {
        target.load(file.path());
        ++failures;
        ADD_FAILURE() << target.name << " mutation " << i
                      << " loaded successfully";
      } catch (const Error&) {
        // expected: every mutation must surface as ron::Error
      } catch (const std::exception& e) {
        ++failures;
        ADD_FAILURE() << target.name << " mutation " << i
                      << " threw non-ron::Error: " << e.what();
      }
      if (failures > 5) break;  // corrupt format: stop the flood
    }
  }
}

// --- failed saves -----------------------------------------------------------
//
// A save streams into a temporary file next to its target and renames it
// over the target only once the section is complete. A save that throws
// part-way — here write_spec refusing a reserved param key after the
// section is already open — must leave the snapshot already at the path
// byte-identical and loadable, and leave no temporary file behind.

/// Files in the test temp dir whose name starts with `prefix`.
std::size_t count_files_with_prefix(const std::string& prefix) {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(SnapshotSave, FailedResaveKeepsTheSnapshotAlreadyAtPath) {
  LabelingFixture fx;
  for (const FuzzTarget& target : fuzz_targets(fx)) {
    SCOPED_TRACE(target.name);
    TempFile file(std::string("failed_save_") + target.name);
    const std::string name =
        std::filesystem::path(file.path()).filename().string();
    target.save(target.spec, file.path());
    const std::vector<char> before = slurp(file.path());

    ScenarioSpec unwritable = target.spec;
    unwritable.params["churn"] = 1;  // reserved: write_spec refuses it
    expect_error_with("reserved",
                      [&] { target.save(unwritable, file.path()); });
    EXPECT_EQ(slurp(file.path()), before);
    EXPECT_NO_THROW(target.load(file.path()));
    EXPECT_EQ(count_files_with_prefix(name), 1u) << "temporary file left";
  }
}

TEST(SnapshotSave, RefusesATargetThatIsNotARegularFile) {
  // The final rename would replace a directory, device or pipe at the
  // target with a regular file; the save must refuse before writing.
  const std::string dir = std::string(::testing::TempDir()) + "ron_save_dir";
  std::filesystem::create_directories(dir);
  expect_error_with("not a regular file",
                    [&] { save_rings(make_rings(8), dir); });
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_EQ(count_files_with_prefix("ron_save_dir"), 1u)
      << "temporary file left";
  std::filesystem::remove(dir);
}

// Deterministic cases the fuzzer covers only probabilistically: each header
// gate (magic, version, exact length) hit by name, mislabeled sections (a
// VALID file of another kind) and missing files. These pin the individual
// checks, so one cannot be dropped while the others keep the fuzzer green.
TEST(SnapshotCorruption, WrongMagicRejected) {
  LabelingFixture fx;
  TempFile file("magic");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[0] = 'X';
  dump(file.path(), bytes);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, UnsupportedVersionRejected) {
  LabelingFixture fx;
  TempFile file("version");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[8] = 99;  // version field follows the 8-byte magic
  dump(file.path(), bytes);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, VersionDowngradeFlipRejected) {
  // A v2 file whose version field is flipped to 1 must NOT load as a v1
  // payload: the v2 checksum domain includes the version field, so the
  // flip is caught by the checksum at the end of the parse if the v1 parser
  // has not already rejected the bytes. One target per kind.
  LabelingFixture fx;
  const auto flip_version_to_v1 = [](const std::string& path) {
    std::vector<char> bytes = slurp(path);
    bytes[8] = 1;  // version field follows the 8-byte magic
    dump(path, bytes);
  };
  for (const FuzzTarget& target : fuzz_targets(fx)) {
    TempFile file(std::string("downgrade_") + target.name);
    target.save(target.spec, file.path());
    flip_version_to_v1(file.path());
    EXPECT_THROW(target.load(file.path()), Error) << target.name;
  }
}

TEST(SnapshotCorruption, KindRelabelFlipRejected) {
  // Same idea for the kind field: relabeling a v2 rings file as a labeling
  // section fails the checksum even before the kind gate (in v1 the gate
  // alone had to catch it — and still does, see WrongKindRejected).
  TempFile file("kindflip");
  save_rings(make_rings(8), file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[12] = 3;  // kind field: kRings -> kDistanceLabeling
  dump(file.path(), bytes);
  EXPECT_THROW(inspect_snapshot(file.path()), Error);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, TrailingGarbageRejected) {
  LabelingFixture fx;
  TempFile file("trailing");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes.push_back('\0');
  dump(file.path(), bytes);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, WrongKindRejected) {
  TempFile rings_file("wrongkind");
  save_rings(make_rings(8), rings_file.path());
  EXPECT_THROW(load_labeling(rings_file.path()), Error);
  EXPECT_THROW(load_directory(rings_file.path()), Error);
  // ...but the generic inspector still reads its header.
  EXPECT_EQ(inspect_snapshot(rings_file.path()).kind, SnapshotKind::kRings);
}

TEST(SnapshotCorruption, MissingFileRejected) {
  EXPECT_THROW(load_labeling("/nonexistent/ron.snapshot"), Error);
}

// --- golden snapshot fixtures ----------------------------------------------
//
// Committed files under tests/data/ pin the on-disk format: today's reader
// must load them, and re-serializing the loaded object must reproduce the
// committed bytes exactly. Any format change that breaks old snapshots (or
// makes serialization non-canonical) fails here before it ships. The
// fixtures are built from literals (no RNG) so they can be regenerated
// deterministically on any platform:
//   RON_REGEN_GOLDEN=1 ./test_oracle --gtest_filter='Golden*'

RingsOfNeighbors golden_rings() {
  RingsOfNeighbors rings(6);
  rings.add_ring(0, Ring{1.0, {1, 2}});
  rings.add_ring(0, Ring{2.5, {3, 4, 5}});
  rings.add_ring(1, Ring{0.5, {}});          // empty ring survives
  rings.add_ring(2, Ring{8.0, {5, 5, 0}});   // dedups to {0, 5}
  rings.add_ring(5, Ring{0.125, {0}});
  return rings;
}

/// The spec a loaded v1 directory fixture must synthesize (the old
/// LocationMeta {"geoline", 10, 3, 7} translated field by field).
ScenarioSpec golden_directory_spec_v1() {
  return ScenarioSpec::parse("metric=geoline,n=10,seed=3,overlay_seed=7");
}

/// v2 fixture specs exercise every spec wire field: non-default delta,
/// ring factors, the Y-only flag and a family parameter (exact binary
/// doubles, so the fixtures are platform-independent).
ScenarioSpec golden_rings_spec_v2() {
  return ScenarioSpec::parse("metric=geoline,n=6,seed=3,base=1.25");
}

ScenarioSpec golden_directory_spec_v2() {
  return ScenarioSpec::parse(
      "metric=geoline,n=10,seed=3,delta=0.375,overlay_seed=7,c_x=3,c_y=1.5,"
      "with_x=0,base=1.25");
}

ObjectDirectory golden_directory() {
  ObjectDirectory dir(10);
  dir.publish("alpha", std::vector<NodeId>{9, 1, 5});  // stored sorted
  dir.publish("beta", 0);
  dir.declare("empty");
  return dir;
}

void check_golden_rings(const RingsOfNeighbors& loaded) {
  const RingsOfNeighbors want = golden_rings();
  ASSERT_EQ(loaded.n(), want.n());
  for (NodeId u = 0; u < want.n(); ++u) {
    auto a = want.rings(u);
    auto b = loaded.rings(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

void check_golden_directory(const ObjectDirectory& loaded) {
  const ObjectDirectory want = golden_directory();
  ASSERT_EQ(loaded.n(), want.n());
  ASSERT_EQ(loaded.num_objects(), want.num_objects());
  for (ObjectId obj = 0; obj < want.num_objects(); ++obj) {
    EXPECT_EQ(loaded.name(obj), want.name(obj));
    const auto a = want.holders(obj);
    const auto b = loaded.holders(obj);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "object " << want.name(obj);
  }
}

/// Writes the v2 fixture files when RON_REGEN_GOLDEN is set (a maintenance
/// mode, skipped in normal runs). The v1 fixtures are frozen artifacts: they
/// were written by the v1 save path of an earlier version, and this build
/// can only read that format.
bool maybe_regen_golden() {
  if (std::getenv("RON_REGEN_GOLDEN") == nullptr) return false;
  save_rings(golden_rings(), golden_path("golden_rings_v2.snapshot"),
             golden_rings_spec_v2());
  save_directory(golden_directory_spec_v2(), golden_directory(),
                 golden_path("golden_directory_v2.snapshot"));
  return true;
}

TEST(GoldenSnapshot, RingsV1LoadsAndResavesAsTheV2Fixture) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_rings_v1.snapshot");
  ScenarioSpec spec;
  SnapshotInfo info;
  const RingsOfNeighbors loaded = load_rings(path, &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_TRUE(spec.family.empty()) << "v1 rings carry no recipe";
  check_golden_rings(loaded);
  // Both fixtures hold the same rings, so upgrading the v1 file with the
  // v2 fixture's spec must reproduce the v2 fixture's bytes.
  TempFile resaved("golden_rings");
  save_rings(loaded, resaved.path(), golden_rings_spec_v2());
  EXPECT_EQ(slurp(resaved.path()),
            slurp(golden_path("golden_rings_v2.snapshot")));
}

TEST(GoldenSnapshot, DirectoryV1LoadsAndResavesAsTheV2Fixture) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_directory_v1.snapshot");
  SnapshotInfo info;
  const LoadedDirectory loaded = load_directory(path, &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_EQ(loaded.spec, golden_directory_spec_v1());
  check_golden_directory(loaded.directory);
  TempFile resaved("golden_dir");
  save_directory(golden_directory_spec_v2(), loaded.directory,
                 resaved.path());
  EXPECT_EQ(slurp(resaved.path()),
            slurp(golden_path("golden_directory_v2.snapshot")));
}

TEST(GoldenSnapshot, OracleV1LoadsWithoutFamily) {
  // A v1 oracle bundle carried n/seed/delta and the display name but no
  // family. The fixture was written from a family-less spec (seed 23) over
  // the labeling of random_cube_metric(6, 2, 23) at delta 0.25.
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  SnapshotInfo info;
  const LoadedOracle loaded =
      load_oracle(golden_path("golden_oracle_v1.snapshot"), &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_EQ(info.kind, SnapshotKind::kOracle);
  EXPECT_TRUE(loaded.spec.family.empty());
  EXPECT_EQ(loaded.spec.n, 6u);
  EXPECT_EQ(loaded.spec.seed, 23u);
  EXPECT_EQ(loaded.spec.delta, 0.25);
  EXPECT_EQ(loaded.metric_name, "euclid-6");
  ASSERT_EQ(loaded.labeling.n(), 6u);
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(loaded.labeling.label(u).id, u);
  }
}

TEST(GoldenSnapshot, RingsV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_rings_v2.snapshot");
  ScenarioSpec spec;
  SnapshotInfo info;
  const RingsOfNeighbors loaded = load_rings(path, &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_rings_spec_v2());
  check_golden_rings(loaded);
  TempFile resaved("golden_rings_v2");
  save_rings(loaded, resaved.path(), spec);
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 rings fixture";
}

TEST(GoldenSnapshot, DirectoryV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_directory_v2.snapshot");
  SnapshotInfo info;
  const LoadedDirectory loaded = load_directory(path, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_directory_spec_v2());
  check_golden_directory(loaded.directory);
  TempFile resaved("golden_dir_v2");
  save_directory(loaded.spec, loaded.directory, resaved.path());
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 directory fixture";
}

// --- engine ----------------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  static std::vector<QueryPair> random_pairs(std::size_t count, std::size_t n,
                                             std::uint64_t seed) {
    Rng rng(seed);
    return random_query_pairs(count, n, rng);
  }

  LabelingFixture fx_;
};

TEST_F(EngineTest, BatchMatchesSerialForEveryThreadCount) {
  const std::vector<QueryPair> pairs = random_pairs(500, fx_.dls.n(), 3);
  std::vector<Dist> expected;
  expected.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    expected.push_back(
        DistanceLabeling::estimate(fx_.dls.label(u), fx_.dls.label(v)).upper);
  }
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (std::size_t cache : {std::size_t{0}, std::size_t{64}}) {
      OracleEngine engine(fx_.dls, OracleOptions{threads, cache});
      EXPECT_EQ(engine.num_workers(), threads);
      const std::vector<Dist> got = engine.estimate_batch(pairs);
      EXPECT_EQ(got, expected) << threads << " threads, cache " << cache;
    }
  }
}

TEST_F(EngineTest, SingleQueryMatchesBatch) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = {{0, 5}, {7, 7}, {40, 3}};
  const std::vector<Dist> batch = engine.estimate_batch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(engine.estimate(pairs[i].first, pairs[i].second), batch[i]);
  }
  EXPECT_EQ(batch[1], 0.0);  // self pair
}

TEST_F(EngineTest, OutOfRangeIdsRejected) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = {
      {0, static_cast<NodeId>(fx_.dls.n())}};
  EXPECT_THROW(engine.estimate_batch(pairs), Error);
  EXPECT_THROW(engine.estimate(static_cast<NodeId>(fx_.dls.n()), 0), Error);
}

TEST_F(EngineTest, CacheHitsOnRepeatedQueries) {
  OracleEngine engine(fx_.dls, OracleOptions{4, 1024});
  const std::vector<QueryPair> pairs = random_pairs(200, fx_.dls.n(), 9);
  engine.estimate_batch(pairs);
  const std::size_t first_hits = engine.last_batch_stats().cache_hits;
  const std::vector<Dist> again = engine.estimate_batch(pairs);
  // Replay: every query hits (same shard, same key, capacity not exceeded).
  EXPECT_EQ(engine.last_batch_stats().cache_hits, pairs.size());
  std::vector<Dist> expected;
  for (const auto& [u, v] : pairs) {
    expected.push_back(
        DistanceLabeling::estimate(fx_.dls.label(u), fx_.dls.label(v)).upper);
  }
  EXPECT_EQ(again, expected);
  EXPECT_LT(first_hits, pairs.size());
}

TEST_F(EngineTest, SymmetricPairsShareCacheEntries) {
  // (u,v) and (v,u) have the same source shard only when u%W == v%W; use
  // one worker so the normalized key always lands in the same shard.
  OracleEngine engine(fx_.dls, OracleOptions{1, 64});
  const std::vector<QueryPair> forward = {{1, 2}, {3, 4}};
  const std::vector<QueryPair> reversed = {{2, 1}, {4, 3}};
  const std::vector<Dist> a = engine.estimate_batch(forward);
  const std::vector<Dist> b = engine.estimate_batch(reversed);
  EXPECT_EQ(engine.last_batch_stats().cache_hits, reversed.size());
  EXPECT_EQ(a, b);
}

TEST_F(EngineTest, LruEvictsLeastRecentlyUsed) {
  // Capacity 2 on one worker: querying a third distinct pair evicts the
  // oldest; re-querying it then misses (no hit counted).
  OracleEngine engine(fx_.dls, OracleOptions{1, 2});
  auto run_one = [&](NodeId u, NodeId v) {
    const std::vector<QueryPair> one = {{u, v}};
    engine.estimate_batch(one);
    return engine.last_batch_stats().cache_hits;
  };
  EXPECT_EQ(run_one(0, 1), 0u);
  EXPECT_EQ(run_one(0, 2), 0u);
  EXPECT_EQ(run_one(0, 1), 1u);  // still cached, refreshes recency
  EXPECT_EQ(run_one(0, 3), 0u);  // evicts (0,2), the least recently used
  EXPECT_EQ(run_one(0, 2), 0u);  // miss: was evicted (this evicts (0,1))
  EXPECT_EQ(run_one(0, 3), 1u);  // survived both evictions
}

TEST_F(EngineTest, StatsAccumulate) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = random_pairs(100, fx_.dls.n(), 5);
  engine.estimate_batch(pairs);
  engine.estimate_batch(pairs);
  EXPECT_EQ(engine.last_batch_stats().queries, pairs.size());
  EXPECT_GT(engine.last_batch_stats().qps, 0.0);
  EXPECT_EQ(engine.totals().batches, 2u);
  EXPECT_EQ(engine.totals().queries, 2 * pairs.size());
  EXPECT_GT(engine.totals().seconds, 0.0);
}

TEST_F(EngineTest, SubTickBatchReportsPositiveQps) {
  // Regression: a batch that completes within one clock tick (elapsed 0ns
  // on a frozen FakeClock) used to report qps = 0.0 — a *fast* tiny batch
  // masquerading as zero throughput in bench JSON. Elapsed is clamped to
  // the clock's own 1ns resolution instead.
  FakeClock clock;
  OracleOptions opts;
  opts.num_threads = 1;
  opts.clock = &clock;
  OracleEngine engine(fx_.dls, opts);
  const std::vector<QueryPair> pairs = {{0, 1}, {2, 3}};
  engine.estimate_batch(pairs);
  const BatchStats& stats = engine.last_batch_stats();
  EXPECT_EQ(stats.queries, pairs.size());
  EXPECT_DOUBLE_EQ(stats.seconds, 1e-9);
  EXPECT_DOUBLE_EQ(stats.qps, static_cast<double>(pairs.size()) / 1e-9);
  // An honestly-empty batch still reports zero qps: 0 queries / clamped
  // time, not a fabricated throughput.
  const std::vector<QueryPair> none;
  engine.estimate_batch(none);
  EXPECT_DOUBLE_EQ(engine.last_batch_stats().qps, 0.0);
}

TEST_F(EngineTest, EmptyBatchIsFine) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> none;
  EXPECT_TRUE(engine.estimate_batch(none).empty());
  EXPECT_EQ(engine.last_batch_stats().queries, 0u);
}

TEST(DistanceLabelingParts, UnsortedZetaRejected) {
  // zeta_lookup binary-searches each level on (x, y); from_parts must
  // reject an unsorted level instead of letting estimates go silently wrong.
  DistanceCodec codec(1.0, 10.0, 0.1);
  std::vector<DlsLabel> labels(2);
  for (std::uint32_t u = 0; u < 2; ++u) {
    labels[u].id = u;
    labels[u].host_dist = {1.0, 2.0};
    labels[u].zoom0 = 0;
  }
  labels[0].zeta = {{DlsTriple{1, 0, 0}, DlsTriple{0, 0, 1}}};  // unsorted
  EXPECT_THROW(
      DistanceLabeling::from_parts(codec, 1, 1, std::move(labels)), Error);
}

TEST(EngineErrors, WorkerExceptionSurfacesAsError) {
  // A label pair that passes per-label validation but trips walk_chain's
  // cross-label RON_CHECK (b's zoom0 exceeds a's host array): the throw
  // happens on a pool worker and must reach the dispatcher as ron::Error —
  // not std::terminate — leaving the engine usable.
  DistanceCodec codec(1.0, 10.0, 0.1);
  std::vector<DlsLabel> labels(2);
  labels[0].id = 0;
  labels[0].host_dist = {1.0};
  labels[0].zoom0 = 0;
  labels[1].id = 1;
  labels[1].host_dist = {1.0, 2.0, 3.0};
  labels[1].zoom0 = 2;  // valid for label 1, out of range for label 0
  OracleEngine engine(
      DistanceLabeling::from_parts(codec, 1, 1, std::move(labels)),
      OracleOptions{2, 0});
  const std::vector<QueryPair> bad = {{0, 1}};
  EXPECT_THROW(engine.estimate_batch(bad), Error);
  const std::vector<QueryPair> self = {{1, 1}};  // equal ids short-circuit
  EXPECT_EQ(engine.estimate_batch(self), std::vector<Dist>{0.0});
}

TEST_F(EngineTest, ServesLoadedSnapshotIdenticallyToBuilder) {
  TempFile file("engine");
  save_oracle(fixture_spec(), "euclid-48", fx_.dls, file.path());
  LoadedOracle loaded = load_oracle(file.path());
  OracleEngine built(fx_.dls, OracleOptions{2, 0});
  OracleEngine served(std::move(loaded.labeling), OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = random_pairs(300, fx_.dls.n(), 11);
  EXPECT_EQ(built.estimate_batch(pairs), served.estimate_batch(pairs));
}

}  // namespace
}  // namespace ron
