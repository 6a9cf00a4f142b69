// Versioned, checksummed snapshots of the paper's structures.
//
// The constructions are expensive relative to queries (a DistanceLabeling
// over a few thousand nodes takes seconds to build and microseconds to
// query), so the serving story is: build once, snapshot to disk, load into
// any number of serving processes. One file holds one section:
//
//   [magic "RONSNAP\n"] [u32 format version] [u32 section kind]
//   [u64 payload size] [u64 FNV-1a checksum] [payload]
//
// The checksum covers the payload; in version 2 it additionally covers the
// version and kind header fields, so flipping a v2 file's version or kind
// label fails the checksum instead of reaching the wrong parser.
//
// Every kind is written and read through wire.h's streaming classes, one
// chunk at a time, so neither side ever holds the whole payload. A save
// streams into a sibling temporary file and renames it over `path` only once
// the section is complete: a save that throws leaves any snapshot already
// at `path` as it was.
//
// Format version 2 (the only one written): every section kind embeds the
// ScenarioSpec the artifact was built from as a payload prefix, so any
// snapshot is a self-describing recipe — `ron_oracle info` prints the spec
// back and `locate` rebuilds the exact metric and overlay from it. Version 1
// files (which carried either no recipe or the old OracleMeta/LocationMeta
// structs) still load: the loaders synthesize an equivalent spec. Committed
// golden fixtures pin both formats.
//
// Loads validate magic, version, kind and exact length before parsing. The
// parse bounds-checks every count and index, and the checksum is verified
// at the end of the parse, before the loaded object escapes, so a
// truncated, bit-flipped or mislabeled file throws ron::Error instead of
// corrupting the serving process.
//
// RingsOfNeighbors and DistanceLabeling load back as the live classes
// (queries on the loaded object are bit-identical to the builder's).
// NeighborSystem is a *builder* — it holds references to the ProximityIndex
// and net machinery it was derived from — so it loads as
// NeighborSystemSnapshot: the same read accessors over the materialized
// rings, without the construction-time machinery.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "churn/churn_trace.h"
#include "common/check.h"
#include "core/rings.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "location/object_directory.h"
#include "scenario/scenario_spec.h"

namespace ron {

/// Current write format (spec-carrying) and the legacy format the loaders
/// still accept.
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kSnapshotVersionV1 = 1;

enum class SnapshotKind : std::uint32_t {
  kRings = 1,
  kNeighborSystem = 2,
  kDistanceLabeling = 3,
  kOracle = 4,           // serving bundle: scenario + distance labeling
  kObjectDirectory = 5,  // object-location bundle: scenario + directory
  kChurnBundle = 6,      // dynamic bundle: scenario + initial directory +
                         // churn trace (replay reproduces the mutated
                         // overlay bit-for-bit; v2-only)
};

/// Header fields of a snapshot file, validated (magic/version/length/
/// checksum) but with the payload left unparsed.
struct SnapshotInfo {
  SnapshotKind kind = SnapshotKind::kRings;
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

SnapshotInfo inspect_snapshot(const std::string& path);

/// Header-only peek at the section kind (reads 16 bytes, no validation).
/// Returns 0 for unreadable/short files or non-snapshot magic — callers
/// wanting errors should follow up with inspect_snapshot/load. Lives here so
/// it cannot drift from the header layout the save path writes.
std::uint32_t peek_snapshot_kind(const std::string& path);

// Save functions: `spec` is the scenario the artifact was built from and is
// embedded in the payload. When the spec names a family, spec.n must match
// the artifact's node count.
//
// Load functions: `spec`/`info` out-parameters (when non-null) receive the
// embedded or synthesized scenario and the validated header fields. A v1
// file yields a spec with an empty family (unknown provenance) except for
// directories, whose v1 meta carried the full recipe.

// --- RingsOfNeighbors ------------------------------------------------------

void save_rings(const RingsOfNeighbors& rings, const std::string& path,
                const ScenarioSpec& spec = {});
RingsOfNeighbors load_rings(const std::string& path,
                            ScenarioSpec* spec = nullptr,
                            SnapshotInfo* info = nullptr);

// --- NeighborSystem --------------------------------------------------------

/// The read-only view of a NeighborSystem that snapshots preserve: every
/// per-node accessor of the live class (the construction inputs — proximity
/// index, nets, packings — are not part of the snapshot).
class NeighborSystemSnapshot {
 public:
  std::size_t n() const { return n_; }
  double delta() const { return delta_; }
  const NeighborProfile& profile() const { return profile_; }
  int num_levels() const { return num_levels_; }
  int num_z_scales() const { return num_z_scales_; }

  Dist r(NodeId u, int i) const { return r_[idx(u, i)]; }
  std::span<const NodeId> X(NodeId u, int i) const { return x_[idx(u, i)]; }
  std::span<const NodeId> Y(NodeId u, int i) const { return y_[idx(u, i)]; }
  NodeId nearest_x(NodeId u, int i) const { return nearest_x_[idx(u, i)]; }
  NodeId f(NodeId u, int i) const { return f_[idx(u, i)]; }
  int y_level(NodeId u, int i) const { return y_level_[idx(u, i)]; }

  std::span<const NodeId> Z(NodeId u, int j) const { return z_[zidx(u, j)]; }
  std::span<const NodeId> Z_all(NodeId u) const { return z_all_[check_u(u)]; }
  std::span<const NodeId> X_all(NodeId u) const { return x_all_[check_u(u)]; }
  std::span<const NodeId> host_set(NodeId u) const {
    return host_[check_u(u)];
  }
  std::span<const NodeId> virtual_set(NodeId u) const {
    return virtual_[check_u(u)];
  }

 private:
  friend NeighborSystemSnapshot load_neighbor_system(const std::string&,
                                                     ScenarioSpec*,
                                                     SnapshotInfo*);

  std::size_t check_u(NodeId u) const {
    RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
    return u;
  }
  std::size_t idx(NodeId u, int i) const {
    RON_CHECK(u < n_ && i >= 0 && i < num_levels_,
              "u=" << u << "/" << n_ << ", i=" << i << "/" << num_levels_);
    return u * static_cast<std::size_t>(num_levels_) +
           static_cast<std::size_t>(i);
  }
  std::size_t zidx(NodeId u, int j) const {
    RON_CHECK(u < n_ && j >= 1 && j <= num_z_scales_,
              "u=" << u << "/" << n_ << ", j=" << j << "/" << num_z_scales_);
    return u * static_cast<std::size_t>(num_z_scales_) +
           static_cast<std::size_t>(j - 1);
  }

  std::size_t n_ = 0;
  double delta_ = 0.0;
  NeighborProfile profile_;
  int num_levels_ = 0;
  int num_z_scales_ = 0;
  std::vector<Dist> r_;
  std::vector<std::vector<NodeId>> x_;
  std::vector<std::vector<NodeId>> y_;
  std::vector<NodeId> nearest_x_;
  std::vector<NodeId> f_;
  std::vector<int> y_level_;
  std::vector<std::vector<NodeId>> z_;
  std::vector<std::vector<NodeId>> z_all_;
  std::vector<std::vector<NodeId>> x_all_;
  std::vector<std::vector<NodeId>> host_;
  std::vector<std::vector<NodeId>> virtual_;
};

void save_neighbor_system(const NeighborSystem& sys, const std::string& path,
                          const ScenarioSpec& spec = {});
NeighborSystemSnapshot load_neighbor_system(const std::string& path,
                                            ScenarioSpec* spec = nullptr,
                                            SnapshotInfo* info = nullptr);

// --- DistanceLabeling ------------------------------------------------------

void save_labeling(const DistanceLabeling& dls, const std::string& path,
                   const ScenarioSpec& spec = {});
DistanceLabeling load_labeling(const std::string& path,
                               ScenarioSpec* spec = nullptr,
                               SnapshotInfo* info = nullptr);

// --- Oracle serving bundle -------------------------------------------------

struct LoadedOracle {
  /// Build recipe. A v1 file cannot name its metric family: the spec then
  /// has an empty family and only n/seed/delta filled from the old meta.
  ScenarioSpec spec;
  /// Display name of the metric the labeling was built over (provenance for
  /// `ron_oracle info`; the spec, not this name, is the rebuild recipe).
  std::string metric_name;
  DistanceLabeling labeling;
};

/// spec.n must equal dls.n().
void save_oracle(const ScenarioSpec& spec, const std::string& metric_name,
                 const DistanceLabeling& dls, const std::string& path);
/// `info`, when non-null, receives the validated header fields — a combined
/// inspect+load in one read of the file.
LoadedOracle load_oracle(const std::string& path,
                         SnapshotInfo* info = nullptr);

// --- Object-location bundle ------------------------------------------------

struct LoadedDirectory {
  /// The deterministic overlay recipe: rebuilding the spec through a
  /// ScenarioBuilder reproduces the exact metric and X+Y rings the objects
  /// were published against, so a directory snapshot is self-contained.
  ScenarioSpec spec;
  ObjectDirectory directory;
};

/// spec.n must equal directory.n() and spec.family must be non-empty (a
/// directory without a rebuildable recipe cannot serve locates).
void save_directory(const ScenarioSpec& spec, const ObjectDirectory& dir,
                    const std::string& path);
LoadedDirectory load_directory(const std::string& path,
                               SnapshotInfo* info = nullptr);

// --- Churn bundle -----------------------------------------------------------

/// The dynamic-overlay serving artifact: the scenario recipe, the directory
/// state the trace starts from, and the trace itself. Because the mutator
/// is deterministic (spec.churn_seed drives every maintenance draw),
/// rebuild(spec) + replay(trace) reproduces the exact post-churn overlay
/// and directory — the bundle IS the patched snapshot.
struct LoadedChurnBundle {
  ScenarioSpec spec;
  /// Publish state BEFORE the trace (replay applies the trace's
  /// publish/unpublish/leave effects on top).
  ObjectDirectory initial;
  ChurnTrace trace;
};

/// spec.family must be non-empty and spec.n must equal initial.n(). Churn
/// bundles exist only in v2: the legacy format has no spec and therefore no
/// replayable recipe.
void save_churn_bundle(const ScenarioSpec& spec,
                       const ObjectDirectory& initial,
                       const ChurnTrace& trace, const std::string& path);
LoadedChurnBundle load_churn_bundle(const std::string& path,
                                    SnapshotInfo* info = nullptr);

}  // namespace ron
