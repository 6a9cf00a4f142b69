// Behaviour lock for the overlay builder and the snapshot encoders: the
// FNV-1a checksum of whole snapshot files. RingsPin covers save_rings for a
// small scenario matrix on both proximity backends; SnapshotBytesPin covers
// the other section kinds for one fixed scenario.
//
// A refactor or optimisation of the build path (nets, doubling measure, X/Y
// ring sampling, ball canonicalization) must leave every ring exactly as it
// was; any change to which nodes land in which ring — or to the rng stream
// that picks them — moves a checksum here. Likewise a change to how a
// snapshot is framed or encoded moves the file's checksum. An intended
// change updates the constants in the same commit and says why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "churn/trace_generator.h"
#include "common/check.h"
#include "metric/sparse_proximity.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"

namespace ron {
namespace {

struct PinCase {
  const char* name;
  const char* spec;
  std::uint64_t rings_fnv;  // fnv1a64 of the whole save_rings file
};

// Names the case in gtest output (and ctest test names) by its spec rather
// than by the struct's bytes, which include pointers.
void PrintTo(const PinCase& c, std::ostream* os) { *os << c.spec; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string pin_path(const std::string& tag) {
  return std::string(::testing::TempDir()) + "ron_pin_" + tag + ".snapshot";
}

/// fnv1a64 of the whole file at `path`, which is removed afterwards.
std::uint64_t take_file_checksum(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  RON_CHECK(is.good(), "cannot open '" << path << "'");
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  is.close();
  std::remove(path.c_str());
  return fnv1a64(bytes);
}

std::uint64_t rings_checksum(const ScenarioSpec& spec, ProxBackend backend,
                             const std::string& tag) {
  ScenarioBuilder builder(spec, 0, backend);
  const std::string path = pin_path(tag);
  save_rings(builder.rings(), path, builder.spec());
  return take_file_checksum(path);
}

class RingsPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(RingsPin, SnapshotChecksumOnBothBackends) {
  const PinCase& c = GetParam();
  const ScenarioSpec spec = ScenarioSpec::parse(c.spec);
  for (const ProxBackend backend : {ProxBackend::kDense, ProxBackend::kSparse}) {
    const bool dense = backend == ProxBackend::kDense;
    const std::uint64_t got = rings_checksum(
        spec, backend, std::string(c.name) + (dense ? "_dense" : "_sparse"));
    EXPECT_EQ(hex(got), hex(c.rings_fnv))
        << c.spec << " on the " << (dense ? "dense" : "sparse") << " backend";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RingsPin,
    ::testing::Values(
        PinCase{"geoline", "metric=geoline,base=1.3,n=256",
                0xfcac558d78c09346ULL},
        PinCase{"uniline", "metric=uniline,n=512",
                0xeaad42e1b7991484ULL},
        PinCase{"ring", "metric=ring,n=300",
                0x2cca64426ffa2d8fULL},
        PinCase{"clustered", "metric=clustered,n=256",
                0xdef4bdd3178ed7e7ULL}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

// One fixed scenario for the kinds RingsPin does not cover. The churn
// bundle carries a generated trace over the full active set.
class SnapshotBytesPin : public ::testing::Test {
 protected:
  static ScenarioBuilder& builder() {
    static ScenarioBuilder b(ScenarioSpec::parse("metric=clustered,n=128"), 0,
                             ProxBackend::kDense);
    return b;
  }
};

TEST_F(SnapshotBytesPin, NeighborSystem) {
  const std::string path = pin_path("nsys");
  save_neighbor_system(builder().neighbor_system(), path, builder().spec());
  EXPECT_EQ(hex(take_file_checksum(path)), hex(0xf8e2d2c5a3c32cb0ULL));
}

TEST_F(SnapshotBytesPin, Labeling) {
  const std::string path = pin_path("labeling");
  save_labeling(builder().labeling(), path, builder().spec());
  EXPECT_EQ(hex(take_file_checksum(path)), hex(0xabd1de6ccd7e42ddULL));
}

TEST_F(SnapshotBytesPin, Oracle) {
  const std::string path = pin_path("oracle");
  save_oracle(builder().spec(), builder().metric().name(),
              builder().labeling(), path);
  EXPECT_EQ(hex(take_file_checksum(path)), hex(0x946bedba91867bcdULL));
}

TEST_F(SnapshotBytesPin, ChurnBundle) {
  ScenarioSpec spec = builder().spec();
  spec.churn_ops = 40;
  const ObjectDirectory dir = builder().make_directory(8, 2);
  const std::vector<char> active(builder().n(), 1);
  ChurnTraceParams params;
  params.ops = spec.churn_ops;
  const ChurnTrace trace =
      generate_churn_trace(builder().n(), active, dir, params, spec.churn_seed);
  const std::string path = pin_path("churn_bundle");
  save_churn_bundle(spec, dir, trace, path);
  EXPECT_EQ(hex(take_file_checksum(path)), hex(0xa7d4a9d0e02febdbULL));
}

}  // namespace
}  // namespace ron
