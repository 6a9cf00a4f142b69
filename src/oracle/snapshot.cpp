#include "oracle/snapshot.h"

#include <cmath>
#include <cstring>
#include <fstream>

#include "oracle/wire.h"

namespace ron {

namespace {

bool kind_is_known(std::uint32_t k) {
  return k >= static_cast<std::uint32_t>(SnapshotKind::kRings) &&
         k <= static_cast<std::uint32_t>(SnapshotKind::kChurnBundle);
}

/// When the spec names a family it is a real recipe and must agree with the
/// artifact's node count; an empty family ("unknown provenance") may keep
/// its default n.
void check_spec_n(const ScenarioSpec& spec, std::size_t artifact_n,
                  const char* what) {
  RON_CHECK(spec.family.empty() || spec.n == artifact_n,
            "snapshot: scenario spec n=" << spec.n << " != " << what
                                         << " n=" << artifact_n);
}

/// Initial FNV state of a section's checksum. v1 checksums cover the payload
/// alone; v2 folds the header's version and kind fields in front, so a
/// bit-flip that relabels a v2 file (downgrades its version or swaps its
/// kind while leaving the payload intact) fails the checksum instead of
/// gambling on the wrong parser rejecting it.
std::uint64_t stream_checksum_seed(std::uint32_t version, SnapshotKind kind) {
  if (version < kSnapshotVersion) return kFnv1a64Basis;
  WireWriter prefix;
  prefix.u32(version);
  prefix.u32(static_cast<std::uint32_t>(kind));
  return fnv1a64(prefix.bytes());
}

/// A writer for one section of `kind` in the current format. Payloads go
/// to disk a chunk at a time: the big sections (a million-node overlay's
/// rings, a large labeling) are never materialized in memory.
WireStreamWriter section_writer(const std::string& path, SnapshotKind kind) {
  return WireStreamWriter(path, kSnapshotVersion,
                          static_cast<std::uint32_t>(kind),
                          stream_checksum_seed(kSnapshotVersion, kind));
}

/// Validates a freshly-opened reader's header (known version, known kind)
/// and seeds its checksum domain. The checksum itself is verified by
/// expect_done() at the end of the parse — the reader never holds the whole
/// payload — and read_count bounds any allocation a corrupt prefix could
/// request in the meantime, so corruption still surfaces as ron::Error
/// before a loaded object escapes.
SnapshotInfo open_stream_section(WireStreamReader& r,
                                 const std::string& path) {
  const WireStreamReader::Header& h = r.header();
  SnapshotInfo info;
  info.version = h.version;
  RON_CHECK(h.version == kSnapshotVersion || h.version == kSnapshotVersionV1,
            "snapshot: " << path << " has format version " << h.version
                         << ", this build reads " << kSnapshotVersionV1
                         << " and " << kSnapshotVersion);
  RON_CHECK(kind_is_known(h.kind),
            "snapshot: " << path << " has unknown section kind " << h.kind);
  info.kind = static_cast<SnapshotKind>(h.kind);
  info.payload_bytes = h.payload_bytes;
  info.checksum = h.checksum;
  r.seed_checksum(stream_checksum_seed(h.version, info.kind));
  return info;
}

/// open_stream_section plus the kind check every typed loader needs; copies
/// the header fields to `info` when non-null.
SnapshotInfo open_stream_section_of_kind(WireStreamReader& r,
                                         const std::string& path,
                                         SnapshotKind want,
                                         SnapshotInfo* info) {
  const SnapshotInfo local = open_stream_section(r, path);
  RON_CHECK(local.kind == want,
            "snapshot: " << path << " holds section kind "
                         << static_cast<std::uint32_t>(local.kind)
                         << ", expected "
                         << static_cast<std::uint32_t>(want));
  if (info != nullptr) *info = local;
  return local;
}

/// Payload prefix shared by every v2 section: the embedded scenario. v1
/// sections have no prefix; the loader synthesizes an empty-family spec
/// (kOracle/kObjectDirectory override it from their legacy metas).
ScenarioSpec read_spec_prefix(WireStreamReader& r, std::uint32_t version) {
  return version >= kSnapshotVersion ? read_spec(r) : ScenarioSpec{};
}

void write_node_list(WireStreamWriter& w, std::span<const NodeId> xs) {
  w.u64(xs.size());
  for (NodeId v : xs) w.u32(v);
}

/// Node list with every id validated against n (kInvalidNode rejected).
std::vector<NodeId> read_node_list(WireStreamReader& r, std::size_t n,
                                   const char* what) {
  const std::uint64_t count = r.read_count(sizeof(NodeId), what);
  std::vector<NodeId> xs;
  xs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const NodeId v = r.u32();
    RON_CHECK(v < n, "snapshot: " << what << " id " << v
                                  << " out of range (n=" << n << ")");
    xs.push_back(v);
  }
  return xs;
}

std::uint32_t int_to_u32(int v) {
  return static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
}
int u32_to_int(std::uint32_t v) {
  return static_cast<int>(static_cast<std::int32_t>(v));
}

// The labeling payload is shared between the kDistanceLabeling section and
// the kOracle bundle.
void write_labeling_payload(WireStreamWriter& w, const DistanceLabeling& dls) {
  const DistanceCodec& codec = dls.codec();
  w.u32(static_cast<std::uint32_t>(codec.mantissa_bits()));
  w.u32(static_cast<std::uint32_t>(codec.exponent_bits()));
  w.u32(int_to_u32(codec.min_exp()));
  w.u32(int_to_u32(codec.max_exp()));
  w.f64(codec.max_relative_error());
  w.u64(dls.psi_bits());
  w.u64(dls.id_bits());
  w.u64(dls.n());
  for (NodeId u = 0; u < dls.n(); ++u) {
    const DlsLabel& lab = dls.label(u);
    w.u32(lab.id);
    w.u64(lab.host_dist.size());
    for (Dist d : lab.host_dist) w.f64(d);
    w.u64(lab.zeta.size());
    for (const auto& zeta : lab.zeta) {
      w.u64(zeta.size());
      for (const DlsTriple& t : zeta) {
        w.u32(t.x);
        w.u32(t.y);
        w.u32(t.z);
      }
    }
    w.u32(lab.zoom0);
    w.u64(lab.zoom.size());
    for (std::uint32_t y : lab.zoom) w.u32(y);
  }
}

DistanceLabeling read_labeling_payload(WireStreamReader& r) {
  const int mantissa_bits = u32_to_int(r.u32());
  const int exponent_bits = u32_to_int(r.u32());
  const int min_exp = u32_to_int(r.u32());
  const int max_exp = u32_to_int(r.u32());
  const double rel_error = r.f64();
  DistanceCodec codec = DistanceCodec::from_parts(
      mantissa_bits, exponent_bits, min_exp, max_exp, rel_error);
  const std::uint64_t psi_bits = r.u64();
  const std::uint64_t id_bits = r.u64();
  // A label is at least id + host count + zeta count + zoom0 + zoom count.
  const std::uint64_t n = r.read_count(4 + 8 + 8 + 4 + 8, "label");
  RON_CHECK(n >= 1, "snapshot: labeling with zero nodes");
  std::vector<DlsLabel> labels(static_cast<std::size_t>(n));
  for (std::uint64_t u = 0; u < n; ++u) {
    DlsLabel& lab = labels[static_cast<std::size_t>(u)];
    lab.id = r.u32();
    const std::uint64_t hosts = r.read_count(sizeof(double), "host distance");
    lab.host_dist.resize(static_cast<std::size_t>(hosts));
    for (auto& d : lab.host_dist) {
      d = r.f64();
      RON_CHECK(std::isfinite(d) && d >= 0.0,
                "snapshot: host distance not finite/non-negative");
    }
    const std::uint64_t levels = r.read_count(sizeof(std::uint64_t), "zeta");
    lab.zeta.resize(static_cast<std::size_t>(levels));
    for (auto& zeta : lab.zeta) {
      const std::uint64_t triples =
          r.read_count(3 * sizeof(std::uint32_t), "zeta triple");
      zeta.resize(static_cast<std::size_t>(triples));
      for (DlsTriple& t : zeta) {
        t.x = r.u32();
        t.y = r.u32();
        t.z = r.u32();
      }
    }
    lab.zoom0 = r.u32();
    const std::uint64_t zooms =
        r.read_count(sizeof(std::uint32_t), "zoom entry");
    lab.zoom.resize(static_cast<std::size_t>(zooms));
    for (auto& y : lab.zoom) y = r.u32();
  }
  // from_parts re-validates ids, zoom0 and zeta indices against host sizes.
  return DistanceLabeling::from_parts(codec, psi_bits, id_bits,
                                      std::move(labels));
}

// --- legacy (v1) meta blocks ----------------------------------------------
//
// Version 1 carried per-kind provenance structs instead of a spec. This
// build only reads them: the loaders translate them into an equivalent
// ScenarioSpec.

void read_oracle_meta_v1(WireStreamReader& r, ScenarioSpec& spec,
                         std::string& metric_name) {
  metric_name = r.str();
  spec.family.clear();  // v1 oracle bundles never named their family
  spec.n = r.u64();
  RON_CHECK(spec.n >= 1, "snapshot: oracle meta n must be >= 1");
  spec.seed = r.u64();
  spec.delta = r.f64();
  RON_CHECK(std::isfinite(spec.delta) && spec.delta > 0.0 && spec.delta < 1.0,
            "snapshot: oracle meta delta " << spec.delta << " outside (0,1)");
}

ScenarioSpec read_directory_meta_v1(WireStreamReader& r) {
  // v1 directories always rebuilt their overlay with the default ring
  // profile and delta, so the synthesized spec's defaults are exact.
  ScenarioSpec spec;
  spec.family = r.str();
  RON_CHECK(!spec.family.empty() && spec.family.size() <= 64,
            "snapshot: directory metric kind of " << spec.family.size()
                                                  << " bytes");
  spec.n = r.u64();
  RON_CHECK(spec.n >= 1 && spec.n <= kInvalidNode,
            "snapshot: directory node count " << spec.n);
  spec.seed = r.u64();
  spec.overlay_seed = r.u64();
  return spec;
}

void write_directory_payload(WireStreamWriter& w, const ObjectDirectory& dir) {
  w.u64(dir.num_objects());
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    w.str(dir.name(obj));
    write_node_list(w, dir.holders(obj));
  }
}

ObjectDirectory read_directory_payload(WireStreamReader& r, std::size_t n) {
  ObjectDirectory dir(n);
  // Every object costs at least a name length + a holder count.
  const std::uint64_t objects =
      r.read_count(2 * sizeof(std::uint64_t), "object");
  for (std::uint64_t i = 0; i < objects; ++i) {
    const std::string name = r.str();
    RON_CHECK(!name.empty(), "snapshot: empty object name");
    RON_CHECK(dir.find(name) == kInvalidObject,
              "snapshot: duplicate object name '" << name << "'");
    // declare-then-publish keeps fully-unpublished objects (zero holders)
    // loadable; publish re-sorts and dedups, so holder accounting is
    // recomputed rather than trusted.
    dir.declare(name);
    for (NodeId v : read_node_list(r, n, "holder")) {
      dir.publish(name, v);
    }
  }
  return dir;
}

}  // namespace

SnapshotInfo inspect_snapshot(const std::string& path) {
  // Verifies length and checksum in one bounded-memory pass, so inspecting
  // a multi-GB snapshot never loads it.
  WireStreamReader r(path);
  const SnapshotInfo info = open_stream_section(r, path);
  r.drain();
  r.expect_done();
  return info;
}

std::uint32_t peek_snapshot_kind(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  // Layout written by WireStreamWriter: magic[8], version u32, kind u32.
  std::uint8_t hdr[sizeof(kSnapshotMagic) + 2 * sizeof(std::uint32_t)];
  if (read_stream_prefix(in, hdr) != sizeof(hdr)) return 0;
  if (std::memcmp(hdr, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) return 0;
  WireReader rd(std::span(hdr + sizeof(kSnapshotMagic), 2 * sizeof(std::uint32_t)));
  rd.u32();  // version (the caller routes on kind alone)
  return rd.u32();
}

void save_rings(const RingsOfNeighbors& rings, const std::string& path,
                const ScenarioSpec& spec) {
  check_spec_n(spec, rings.n(), "rings");
  WireStreamWriter w = section_writer(path, SnapshotKind::kRings);
  write_spec(w, spec);
  w.u64(rings.n());
  // Visitation accessors instead of the rings() span, so sealed (compact)
  // and mutable containers write byte-identical snapshots.
  std::vector<NodeId> members;
  for (NodeId u = 0; u < rings.n(); ++u) {
    const std::size_t nr = rings.num_rings(u);
    w.u64(nr);
    for (std::size_t k = 0; k < nr; ++k) {
      w.f64(rings.ring_scale(u, k));
      members.clear();
      rings.visit_ring(u, k, [&](NodeId v) { members.push_back(v); });
      write_node_list(w, members);
    }
  }
  w.finish();
}

RingsOfNeighbors load_rings(const std::string& path, ScenarioSpec* spec,
                            SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_stream_section_of_kind(
      r, path, SnapshotKind::kRings, info);
  const ScenarioSpec embedded = read_spec_prefix(r, local.version);
  if (spec != nullptr) *spec = embedded;
  const std::uint64_t n = r.read_count(sizeof(std::uint64_t), "node");
  RON_CHECK(n >= 1 && n <= kInvalidNode, "snapshot: rings node count " << n);
  RingsOfNeighbors rings(static_cast<std::size_t>(n));
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint64_t num_rings =
        r.read_count(sizeof(double) + sizeof(std::uint64_t), "ring");
    for (std::uint64_t k = 0; k < num_rings; ++k) {
      Ring ring;
      ring.scale = r.f64();
      ring.members =
          read_node_list(r, static_cast<std::size_t>(n), "ring member");
      // add_ring re-sorts, dedups and rebuilds the degree caches, so the
      // loaded accounting is recomputed rather than trusted.
      rings.add_ring(static_cast<NodeId>(u), std::move(ring));
    }
  }
  r.expect_done();
  check_spec_n(embedded, rings.n(), "rings");
  return rings;
}

void save_neighbor_system(const NeighborSystem& sys, const std::string& path,
                          const ScenarioSpec& spec) {
  const std::size_t n = sys.prox().n();
  check_spec_n(spec, n, "neighbor system");
  const int levels = sys.num_levels();
  const int zscales = sys.num_z_scales();
  WireStreamWriter w = section_writer(path, SnapshotKind::kNeighborSystem);
  write_spec(w, spec);
  w.u64(n);
  w.f64(sys.delta());
  w.f64(sys.profile().y_ball_factor);
  w.f64(sys.profile().y_net_divisor);
  w.f64(sys.profile().z_net_divisor);
  w.u32(static_cast<std::uint32_t>(levels));
  w.u32(static_cast<std::uint32_t>(zscales));
  for (NodeId u = 0; u < n; ++u) {
    for (int i = 0; i < levels; ++i) {
      w.f64(sys.r(u, i));
      w.u32(sys.nearest_x(u, i));  // may be kInvalidNode
      w.u32(sys.f(u, i));
      w.u32(int_to_u32(sys.y_level(u, i)));
      write_node_list(w, sys.X(u, i));
      write_node_list(w, sys.Y(u, i));
    }
    for (int j = 1; j <= zscales; ++j) write_node_list(w, sys.Z(u, j));
    write_node_list(w, sys.Z_all(u));
    write_node_list(w, sys.X_all(u));
    write_node_list(w, sys.host_set(u));
    write_node_list(w, sys.virtual_set(u));
  }
  w.finish();
}

NeighborSystemSnapshot load_neighbor_system(const std::string& path,
                                            ScenarioSpec* spec,
                                            SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_stream_section_of_kind(
      r, path, SnapshotKind::kNeighborSystem, info);
  const ScenarioSpec embedded = read_spec_prefix(r, local.version);
  if (spec != nullptr) *spec = embedded;
  NeighborSystemSnapshot s;
  const std::uint64_t n = r.read_count(sizeof(std::uint64_t), "node");
  RON_CHECK(n >= 1 && n <= kInvalidNode,
            "snapshot: neighbor system node count " << n);
  s.n_ = static_cast<std::size_t>(n);
  s.delta_ = r.f64();
  RON_CHECK(s.delta_ > 0.0 && s.delta_ < 1.0,
            "snapshot: delta " << s.delta_ << " outside (0,1)");
  s.profile_.y_ball_factor = r.f64();
  s.profile_.y_net_divisor = r.f64();
  s.profile_.z_net_divisor = r.f64();
  s.num_levels_ = u32_to_int(r.u32());
  s.num_z_scales_ = u32_to_int(r.u32());
  RON_CHECK(s.num_levels_ >= 1 && s.num_levels_ <= 64,
            "snapshot: level count " << s.num_levels_);
  RON_CHECK(s.num_z_scales_ >= 1 && s.num_z_scales_ <= 4096,
            "snapshot: z-scale count " << s.num_z_scales_);
  const std::size_t per_level = s.n_ * static_cast<std::size_t>(s.num_levels_);
  s.r_.reserve(per_level);
  s.nearest_x_.reserve(per_level);
  s.f_.reserve(per_level);
  s.y_level_.reserve(per_level);
  s.x_.reserve(per_level);
  s.y_.reserve(per_level);
  for (std::size_t u = 0; u < s.n_; ++u) {
    for (int i = 0; i < s.num_levels_; ++i) {
      const Dist radius = r.f64();
      RON_CHECK(std::isfinite(radius) && radius >= 0.0,
                "snapshot: level radius not finite/non-negative");
      s.r_.push_back(radius);
      const NodeId nearest = r.u32();
      RON_CHECK(nearest < s.n_ || nearest == kInvalidNode,
                "snapshot: nearest_x out of range");
      s.nearest_x_.push_back(nearest);
      const NodeId fu = r.u32();
      RON_CHECK(fu < s.n_, "snapshot: zooming node out of range");
      s.f_.push_back(fu);
      const int ylev = u32_to_int(r.u32());
      RON_CHECK(ylev >= 0 && ylev <= 4096, "snapshot: y_level " << ylev);
      s.y_level_.push_back(ylev);
      s.x_.push_back(read_node_list(r, s.n_, "X member"));
      s.y_.push_back(read_node_list(r, s.n_, "Y member"));
    }
    for (int j = 1; j <= s.num_z_scales_; ++j) {
      s.z_.push_back(read_node_list(r, s.n_, "Z member"));
    }
    s.z_all_.push_back(read_node_list(r, s.n_, "Z_all member"));
    s.x_all_.push_back(read_node_list(r, s.n_, "X_all member"));
    s.host_.push_back(read_node_list(r, s.n_, "host member"));
    s.virtual_.push_back(read_node_list(r, s.n_, "virtual member"));
  }
  r.expect_done();
  check_spec_n(embedded, s.n_, "neighbor system");
  return s;
}

void save_labeling(const DistanceLabeling& dls, const std::string& path,
                   const ScenarioSpec& spec) {
  check_spec_n(spec, dls.n(), "labeling");
  WireStreamWriter w = section_writer(path, SnapshotKind::kDistanceLabeling);
  write_spec(w, spec);
  write_labeling_payload(w, dls);
  w.finish();
}

DistanceLabeling load_labeling(const std::string& path, ScenarioSpec* spec,
                               SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_stream_section_of_kind(
      r, path, SnapshotKind::kDistanceLabeling, info);
  const ScenarioSpec embedded = read_spec_prefix(r, local.version);
  if (spec != nullptr) *spec = embedded;
  DistanceLabeling dls = read_labeling_payload(r);
  r.expect_done();
  check_spec_n(embedded, dls.n(), "labeling");
  return dls;
}

void save_oracle(const ScenarioSpec& spec, const std::string& metric_name,
                 const DistanceLabeling& dls, const std::string& path) {
  RON_CHECK(spec.n == dls.n(),
            "save_oracle: spec n " << spec.n << " != labeling n " << dls.n());
  WireStreamWriter w = section_writer(path, SnapshotKind::kOracle);
  write_spec(w, spec);
  w.str(metric_name);
  write_labeling_payload(w, dls);
  w.finish();
}

LoadedOracle load_oracle(const std::string& path, SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_stream_section_of_kind(
      r, path, SnapshotKind::kOracle, info);
  ScenarioSpec spec;
  std::string metric_name;
  if (local.version >= kSnapshotVersion) {
    spec = read_spec(r);
    metric_name = r.str();
  } else {
    read_oracle_meta_v1(r, spec, metric_name);
  }
  DistanceLabeling dls = read_labeling_payload(r);
  r.expect_done();
  RON_CHECK(spec.n == dls.n(), "snapshot: oracle spec n "
                                   << spec.n << " != labeling n "
                                   << dls.n());
  return LoadedOracle{std::move(spec), std::move(metric_name),
                      std::move(dls)};
}

void save_directory(const ScenarioSpec& spec, const ObjectDirectory& dir,
                    const std::string& path) {
  RON_CHECK(!spec.family.empty(),
            "save_directory: the scenario spec must name a metric family "
            "(the stored recipe is what locate rebuilds from)");
  RON_CHECK(spec.n == dir.n(), "save_directory: spec n " << spec.n
                                   << " != directory n " << dir.n());
  WireStreamWriter w = section_writer(path, SnapshotKind::kObjectDirectory);
  write_spec(w, spec);
  write_directory_payload(w, dir);
  w.finish();
}

LoadedDirectory load_directory(const std::string& path, SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_stream_section_of_kind(
      r, path, SnapshotKind::kObjectDirectory, info);
  ScenarioSpec spec = local.version >= kSnapshotVersion
                          ? read_spec(r)
                          : read_directory_meta_v1(r);
  RON_CHECK(!spec.family.empty(),
            "snapshot: directory recipe is missing its metric family");
  RON_CHECK(spec.n <= kInvalidNode,
            "snapshot: directory node count " << spec.n);
  ObjectDirectory dir =
      read_directory_payload(r, static_cast<std::size_t>(spec.n));
  r.expect_done();
  return LoadedDirectory{std::move(spec), std::move(dir)};
}

void save_churn_bundle(const ScenarioSpec& spec,
                       const ObjectDirectory& initial,
                       const ChurnTrace& trace, const std::string& path) {
  RON_CHECK(!spec.family.empty(),
            "save_churn_bundle: the scenario spec must name a metric family "
            "(the stored recipe is what replay rebuilds from)");
  RON_CHECK(spec.n == initial.n(), "save_churn_bundle: spec n "
                                       << spec.n << " != directory n "
                                       << initial.n());
  trace.validate(initial.n());
  WireStreamWriter w = section_writer(path, SnapshotKind::kChurnBundle);
  write_spec(w, spec);
  write_directory_payload(w, initial);
  write_trace_payload(w, trace);
  w.finish();
}

LoadedChurnBundle load_churn_bundle(const std::string& path,
                                    SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_stream_section_of_kind(
      r, path, SnapshotKind::kChurnBundle, info);
  // Churn bundles exist only in v2: without an embedded recipe a trace
  // could not be replayed.
  RON_CHECK(local.version >= kSnapshotVersion,
            "snapshot: churn bundle labeled v" << local.version);
  ScenarioSpec spec = read_spec(r);
  RON_CHECK(!spec.family.empty(),
            "snapshot: churn bundle recipe is missing its metric family");
  RON_CHECK(spec.n <= kInvalidNode,
            "snapshot: churn bundle node count " << spec.n);
  const std::size_t n = static_cast<std::size_t>(spec.n);
  ObjectDirectory initial = read_directory_payload(r, n);
  ChurnTrace trace = read_trace_payload(r, n);
  r.expect_done();
  return LoadedChurnBundle{std::move(spec), std::move(initial),
                           std::move(trace)};
}

}  // namespace ron
