// Rings of neighbors — the paper's unifying data structure (§1).
//
// Every node u stores pointers to some nodes ("neighbors"), partitioned into
// rings: for an increasing sequence of balls {B_i} around u, the i-th ring's
// neighbors lie inside B_i. The radii and the selection rule are
// application-specific; the paper combines two canonical collections:
//
//   (1) ball CARDINALITIES grow exponentially and the i-ring neighbors are
//       uniform on the node set of B_i (the X-type rings of §3 and §5);
//   (2) ball RADII grow exponentially and the i-ring neighbors are
//       distributed "uniformly in space", i.e. by a doubling measure, or are
//       the net points of a 2^i-net (the Y-type rings).
//
// RingsOfNeighbors is the shared container (with honest bit accounting);
// the free functions below are the selection policies. Rings are appended
// by the static builders and *patched in place* by the churn subsystem
// (src/churn/): add_member/remove_member/clear_members keep the per-node
// neighbor caches and the degree accounting exact under mutation, which is
// what makes incremental overlay maintenance possible without a rebuild.
//
// Two storage modes. The container starts mutable (vector-of-vectors per
// node — what churn patches in place). seal() freezes it into compact
// storage: per-node varint-delta blobs for ring member sets and for the
// deduped neighbor union, built for the million-node serving regime where
// the mutable form's per-ring vector headers dominate the ids themselves.
// After sealing, mutators and the span/reference accessors (rings(),
// all_neighbors()) throw ron::Error; the visitation accessors
// (visit_neighbors, visit_ring, ring_level_of) and all O(1) accounting
// (out_degree, max/avg degree, pointer_bits) work in both modes and
// enumerate members in the same ascending-id order, so walks and snapshot
// writers behave identically on either representation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "metric/proximity.h"
#include "net/doubling_measure.h"

namespace ron {

struct Ring {
  /// Application-specific scale annotation (ball radius or cardinality).
  double scale = 0.0;
  /// Neighbor nodes; unique within the ring, sorted by id.
  std::vector<NodeId> members;

  friend bool operator==(const Ring&, const Ring&) = default;
};

class RingsOfNeighbors {
 public:
  explicit RingsOfNeighbors(std::size_t n);

  std::size_t n() const { return n_; }

  /// Appends a ring to node u (members are deduped and sorted).
  void add_ring(NodeId u, Ring ring);

  std::size_t num_rings(NodeId u) const;

  /// Inserts v into u's `ring_index`-th ring, keeping the ring and the
  /// neighbor cache sorted. Returns false (no-op) if v is already a member.
  bool add_member(NodeId u, std::size_t ring_index, NodeId v);

  /// Removes v from u's `ring_index`-th ring. Returns false (no-op) if v is
  /// not a member. The neighbor cache drops v only when no other ring of u
  /// still holds it; the degree maxima are re-derived when the removal
  /// shrinks the current maximum.
  bool remove_member(NodeId u, std::size_t ring_index, NodeId v);

  /// Empties every ring of u (ring count and scale annotations are kept, so
  /// ring indices stay meaningful for later re-population). Used when a
  /// node leaves the overlay.
  void clear_members(NodeId u);

  bool ring_contains(NodeId u, std::size_t ring_index, NodeId v) const;

  /// Updates the scale annotation of u's `ring_index`-th ring (the churn
  /// layer re-derives it when it re-populates a cleared ring).
  void set_ring_scale(NodeId u, std::size_t ring_index, double scale);

  std::span<const Ring> rings(NodeId u) const;

  /// Distinct neighbors of u across all rings, sorted by id. O(1): served
  /// from a cache maintained incrementally by add_ring.
  const std::vector<NodeId>& all_neighbors(NodeId u) const;

  /// Number of distinct neighbors (the out-degree of the overlay). O(1).
  std::size_t out_degree(NodeId u) const;

  std::size_t max_out_degree() const { return max_degree_; }
  double avg_out_degree() const {
    // n_, not rings_.size(): seal() frees the mutable per-node vector.
    return static_cast<double>(total_degree_) / static_cast<double>(n_);
  }

  /// Bits to store u's neighbor pointers as global node ids
  /// (#neighbors * ceil(log2 n) — the paper's baseline encoding).
  std::uint64_t pointer_bits(NodeId u) const;

  // ---- compact storage -----------------------------------------------

  /// Freezes the container into the compact varint-delta representation
  /// and frees the mutable vectors. Idempotent. After sealing, every
  /// mutator and the span/reference accessors throw ron::Error; use the
  /// visit_* accessors instead.
  void seal();

  bool sealed() const { return sealed_; }

  /// Scale annotation of u's ring_index-th ring (both modes).
  double ring_scale(NodeId u, std::size_t ring_index) const;

  /// Visits the members of u's ring_index-th ring in ascending id order
  /// (both modes).
  void visit_ring(NodeId u, std::size_t ring_index,
                  const std::function<void(NodeId)>& fn) const;

  /// Visits u's distinct neighbors in ascending id order (both modes) —
  /// the compact-mode counterpart of all_neighbors(). Inline so the
  /// serving walk's greedy scan does not pay an indirect call per member.
  template <typename Fn>
  void visit_neighbors(NodeId u, Fn&& fn) const {
    if (!sealed_) {
      for (NodeId v : all_neighbors(u)) fn(v);
      return;
    }
    RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
    decode_ids(nbr_blob_.data() + nbr_begin_[u], degree_[u],
               std::forward<Fn>(fn));
  }

  /// Ring level of the first ring of u containing v; -1 if none. The
  /// member-function counterpart of the free ring_level_of below, working
  /// in both modes.
  int ring_level_of(NodeId u, NodeId v) const;

  /// Heap bytes held by the ring storage (the bench's bytes-per-node
  /// metric; both modes).
  std::uint64_t memory_bytes() const;

 private:
  Ring& ring_at(NodeId u, std::size_t ring_index);

  /// Decodes `count` varint-delta ids (first absolute, rest deltas) and
  /// feeds them to fn in ascending order.
  template <typename Fn>
  static void decode_ids(const std::uint8_t* p, std::uint64_t count,
                         Fn&& fn) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t delta = 0;
      int shift = 0;
      std::uint8_t byte;
      do {
        byte = *p++;
        delta |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        shift += 7;
      } while ((byte & 0x80) != 0);
      acc = (i == 0) ? delta : acc + delta;
      fn(static_cast<NodeId>(acc));
    }
  }
  /// O(n) re-derivation of max_degree_; only needed when a mutation shrinks
  /// the node currently holding the maximum (growth keeps the max exact
  /// incrementally).
  void recompute_max_degree();

  std::size_t n_ = 0;
  std::vector<std::vector<Ring>> rings_;
  // Accounting caches, updated by every mutation (add_ring, add_member,
  // remove_member, clear_members) so the degree views stay O(1).
  std::vector<std::vector<NodeId>> neighbors_;  // sorted-unique union per node
  std::size_t max_degree_ = 0;
  std::uint64_t total_degree_ = 0;

  // Compact mode (seal()). Ring member sets live in blob_, grouped by node:
  // per ring, a member-count varint followed by the varint-delta ids.
  // Scales are flat per ring; node_ring_first_ slices them per node. The
  // deduped neighbor unions get their own blob so the serving walk decodes
  // exactly one delta stream per hop.
  bool sealed_ = false;
  std::vector<std::uint8_t> blob_;
  std::vector<std::uint64_t> node_blob_begin_;  // n+1 offsets into blob_
  std::vector<std::uint64_t> node_ring_first_;  // n+1 indices into ring_scale_
  std::vector<double> ring_scale_;              // flat, one per ring
  std::vector<std::uint8_t> nbr_blob_;
  std::vector<std::uint64_t> nbr_begin_;        // n+1 offsets into nbr_blob_
  std::vector<std::uint32_t> degree_;           // distinct neighbors per node
};

/// Policy (1): `count` nodes sampled uniformly (with replacement, then
/// deduped) from the smallest ball around u holding >= min_ball_size nodes.
Ring sample_uniform_ball_ring(const ProximityIndex& prox, NodeId u,
                              std::size_t min_ball_size, std::size_t count,
                              Rng& rng);

/// Policy (2a): `count` nodes sampled from B_u(radius) with probability
/// mu(.)/mu(B) (deduped). Materializes the ball once per ring.
Ring sample_measure_ball_ring(const MeasureView& mu, NodeId u, Dist radius,
                              std::size_t count, Rng& rng);

/// Policy (2b): all net points of `net_members` inside B_u(radius)
/// (deterministic net-intersection ring, as in Theorem 2.1).
Ring net_intersection_ring(const ProximityIndex& prox, NodeId u, Dist radius,
                           std::span<const NodeId> net_members);

/// Ring level of the first ring in `rings` containing v; -1 if v is in no
/// ring. Takes the ring list itself (not the container + node id) because
/// the protocol view (src/sim/) asks it of a node's *local* rings copy,
/// while the traced in-process walks pass RingsOfNeighbors::rings(u).
int ring_level_of(std::span<const Ring> rings, NodeId v);

}  // namespace ron
