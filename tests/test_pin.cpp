// Behaviour lock for the overlay builder: the FNV-1a checksum of the
// save_rings snapshot for a small scenario matrix, on both proximity
// backends.
//
// A refactor or optimisation of the build path (nets, doubling measure, X/Y
// ring sampling, ball canonicalization) must leave every ring exactly as it
// was; any change to which nodes land in which ring — or to the rng stream
// that picks them — moves a checksum here. An intended change to the built
// rings updates the constants in the same commit and says why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

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

std::uint64_t rings_checksum(const ScenarioSpec& spec, ProxBackend backend,
                             const std::string& tag) {
  ScenarioBuilder builder(spec, 0, backend);
  const std::string path =
      std::string(::testing::TempDir()) + "ron_pin_" + tag + ".snapshot";
  save_rings(builder.rings(), path, builder.spec());
  std::ifstream is(path, std::ios::binary);
  RON_CHECK(is.good(), "cannot open '" << path << "'");
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  is.close();
  std::remove(path.c_str());
  return fnv1a64(bytes);
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

}  // namespace
}  // namespace ron
