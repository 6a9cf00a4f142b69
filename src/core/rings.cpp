#include "core/rings.h"

#include <algorithm>
#include <iterator>

#include "common/bits.h"
#include "common/check.h"

namespace ron {

namespace {

void encode_varint(std::vector<std::uint8_t>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

/// Appends [count][first][deltas...] for a sorted-unique id list.
void encode_ids(std::vector<std::uint8_t>& out,
                std::span<const NodeId> ids) {
  encode_varint(out, ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    encode_varint(out, i == 0 ? ids[0] : ids[i] - ids[i - 1]);
  }
}

std::uint64_t read_varint(const std::uint8_t*& p) {
  std::uint64_t x = 0;
  int shift = 0;
  std::uint8_t byte;
  do {
    byte = *p++;
    x |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    shift += 7;
  } while ((byte & 0x80) != 0);
  return x;
}

/// Advances p past one [count][ids...] group.
void skip_ids(const std::uint8_t*& p) {
  const std::uint64_t count = read_varint(p);
  for (std::uint64_t i = 0; i < count; ++i) read_varint(p);
}

}  // namespace

RingsOfNeighbors::RingsOfNeighbors(std::size_t n)
    : n_(n), rings_(n), neighbors_(n) {
  RON_CHECK(n >= 1, "n=" << n);
}

void RingsOfNeighbors::add_ring(NodeId u, Ring ring) {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): add_ring "
                      "requires the mutable representation");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  std::sort(ring.members.begin(), ring.members.end());
  ring.members.erase(std::unique(ring.members.begin(), ring.members.end()),
                     ring.members.end());
  for (NodeId v : ring.members) {
    RON_CHECK(v < rings_.size(), "ring member out of range");
  }
  std::vector<NodeId>& cache = neighbors_[u];
  const std::size_t old_degree = cache.size();
  std::vector<NodeId> merged;
  merged.reserve(old_degree + ring.members.size());
  std::set_union(cache.begin(), cache.end(), ring.members.begin(),
                 ring.members.end(), std::back_inserter(merged));
  cache = std::move(merged);
  total_degree_ += cache.size() - old_degree;
  max_degree_ = std::max(max_degree_, cache.size());
  rings_[u].push_back(std::move(ring));
}

Ring& RingsOfNeighbors::ring_at(NodeId u, std::size_t ring_index) {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): in-place ring "
                      "mutation requires the mutable representation");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  RON_CHECK(ring_index < rings_[u].size(),
            "ring index " << ring_index << " out of range (node " << u
                          << " has " << rings_[u].size() << " rings)");
  return rings_[u][ring_index];
}

void RingsOfNeighbors::recompute_max_degree() {
  max_degree_ = 0;
  for (const auto& cache : neighbors_) {
    max_degree_ = std::max(max_degree_, cache.size());
  }
}

bool RingsOfNeighbors::add_member(NodeId u, std::size_t ring_index, NodeId v) {
  RON_CHECK(v < rings_.size(), "ring member out of range");
  Ring& ring = ring_at(u, ring_index);
  const auto pos = std::lower_bound(ring.members.begin(), ring.members.end(),
                                    v);
  if (pos != ring.members.end() && *pos == v) return false;
  ring.members.insert(pos, v);
  std::vector<NodeId>& cache = neighbors_[u];
  const auto cpos = std::lower_bound(cache.begin(), cache.end(), v);
  if (cpos == cache.end() || *cpos != v) {
    cache.insert(cpos, v);
    ++total_degree_;
    max_degree_ = std::max(max_degree_, cache.size());
  }
  return true;
}

bool RingsOfNeighbors::remove_member(NodeId u, std::size_t ring_index,
                                     NodeId v) {
  Ring& ring = ring_at(u, ring_index);
  const auto pos = std::lower_bound(ring.members.begin(), ring.members.end(),
                                    v);
  if (pos == ring.members.end() || *pos != v) return false;
  ring.members.erase(pos);
  // The cache keeps v while any other ring of u still holds it.
  for (const Ring& other : rings_[u]) {
    if (std::binary_search(other.members.begin(), other.members.end(), v)) {
      return true;
    }
  }
  std::vector<NodeId>& cache = neighbors_[u];
  const auto cpos = std::lower_bound(cache.begin(), cache.end(), v);
  RON_CHECK(cpos != cache.end() && *cpos == v, "neighbor cache out of sync");
  const bool was_max = cache.size() == max_degree_;
  cache.erase(cpos);
  --total_degree_;
  if (was_max) recompute_max_degree();
  return true;
}

void RingsOfNeighbors::clear_members(NodeId u) {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): clear_members "
                      "requires the mutable representation");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  for (Ring& ring : rings_[u]) ring.members.clear();
  std::vector<NodeId>& cache = neighbors_[u];
  const bool was_max = cache.size() == max_degree_;
  total_degree_ -= cache.size();
  cache.clear();
  if (was_max) recompute_max_degree();
}

void RingsOfNeighbors::set_ring_scale(NodeId u, std::size_t ring_index,
                                      double scale) {
  ring_at(u, ring_index).scale = scale;
}

bool RingsOfNeighbors::ring_contains(NodeId u, std::size_t ring_index,
                                     NodeId v) const {
  if (sealed_) {
    bool found = false;
    visit_ring(u, ring_index, [&](NodeId m) { found = found || m == v; });
    return found;
  }
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  RON_CHECK(ring_index < rings_[u].size(),
            "ring index " << ring_index << " out of range");
  const std::vector<NodeId>& ms = rings_[u][ring_index].members;
  return std::binary_search(ms.begin(), ms.end(), v);
}

std::span<const Ring> RingsOfNeighbors::rings(NodeId u) const {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): the rings() span "
                      "is only available on the mutable representation — use "
                      "num_rings/ring_scale/visit_ring");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  return rings_[u];
}

std::size_t RingsOfNeighbors::num_rings(NodeId u) const {
  RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
  if (sealed_) return node_ring_first_[u + 1] - node_ring_first_[u];
  return rings_[u].size();
}

const std::vector<NodeId>& RingsOfNeighbors::all_neighbors(NodeId u) const {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): the "
                      "all_neighbors() reference is only available on the "
                      "mutable representation — use visit_neighbors");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  return neighbors_[u];
}

std::size_t RingsOfNeighbors::out_degree(NodeId u) const {
  if (sealed_) {
    RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
    return degree_[u];
  }
  return all_neighbors(u).size();
}

std::uint64_t RingsOfNeighbors::pointer_bits(NodeId u) const {
  return out_degree(u) * bits_for_index(n_);
}

void RingsOfNeighbors::seal() {
  if (sealed_) return;
  node_blob_begin_.assign(n_ + 1, 0);
  node_ring_first_.assign(n_ + 1, 0);
  nbr_begin_.assign(n_ + 1, 0);
  degree_.resize(n_);
  std::size_t total_rings = 0;
  for (NodeId u = 0; u < n_; ++u) total_rings += rings_[u].size();
  ring_scale_.reserve(total_rings);
  for (NodeId u = 0; u < n_; ++u) {
    for (const Ring& ring : rings_[u]) {
      ring_scale_.push_back(ring.scale);
      encode_ids(blob_, ring.members);
    }
    node_ring_first_[u + 1] = ring_scale_.size();
    node_blob_begin_[u + 1] = blob_.size();
    // The neighbor blob omits the count prefix: degree_ already holds it,
    // and the walk passes it to decode_ids directly.
    const std::vector<NodeId>& nbrs = neighbors_[u];
    degree_[u] = static_cast<std::uint32_t>(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      encode_varint(nbr_blob_, i == 0 ? nbrs[0] : nbrs[i] - nbrs[i - 1]);
    }
    nbr_begin_[u + 1] = nbr_blob_.size();
    // Free each node's mutable storage as it is encoded, so the peak is
    // one representation plus a single node, not two full copies.
    rings_[u].clear();
    rings_[u].shrink_to_fit();
    neighbors_[u].clear();
    neighbors_[u].shrink_to_fit();
  }
  rings_.clear();
  rings_.shrink_to_fit();
  neighbors_.clear();
  neighbors_.shrink_to_fit();
  blob_.shrink_to_fit();
  nbr_blob_.shrink_to_fit();
  sealed_ = true;
}

double RingsOfNeighbors::ring_scale(NodeId u, std::size_t ring_index) const {
  RON_CHECK(ring_index < num_rings(u),
            "ring index " << ring_index << " out of range (node " << u
                          << " has " << num_rings(u) << " rings)");
  if (sealed_) return ring_scale_[node_ring_first_[u] + ring_index];
  return rings_[u][ring_index].scale;
}

void RingsOfNeighbors::visit_ring(
    NodeId u, std::size_t ring_index,
    const std::function<void(NodeId)>& fn) const {
  RON_CHECK(ring_index < num_rings(u),
            "ring index " << ring_index << " out of range (node " << u
                          << " has " << num_rings(u) << " rings)");
  if (!sealed_) {
    for (NodeId v : rings_[u][ring_index].members) fn(v);
    return;
  }
  const std::uint8_t* p = blob_.data() + node_blob_begin_[u];
  for (std::size_t k = 0; k < ring_index; ++k) skip_ids(p);
  const std::uint64_t count = read_varint(p);
  decode_ids(p, count, fn);
}

int RingsOfNeighbors::ring_level_of(NodeId u, NodeId v) const {
  if (!sealed_) return ron::ring_level_of(rings(u), v);
  RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
  const std::uint8_t* p = blob_.data() + node_blob_begin_[u];
  const std::size_t nr = node_ring_first_[u + 1] - node_ring_first_[u];
  for (std::size_t k = 0; k < nr; ++k) {
    const std::uint64_t count = read_varint(p);
    bool found = false;
    decode_ids(p, count, [&](NodeId m) { found = found || m == v; });
    if (found) return static_cast<int>(k);
    for (std::uint64_t i = 0; i < count; ++i) read_varint(p);
  }
  return -1;
}

std::uint64_t RingsOfNeighbors::memory_bytes() const {
  auto bytes = [](const auto& vec) {
    return static_cast<std::uint64_t>(vec.capacity()) *
           sizeof(typename std::decay_t<decltype(vec)>::value_type);
  };
  std::uint64_t total = bytes(blob_) + bytes(node_blob_begin_) +
                        bytes(node_ring_first_) + bytes(ring_scale_) +
                        bytes(nbr_blob_) + bytes(nbr_begin_) + bytes(degree_);
  total += bytes(rings_) + bytes(neighbors_);
  for (const auto& node_rings : rings_) {
    total += bytes(node_rings);
    for (const Ring& ring : node_rings) total += bytes(ring.members);
  }
  for (const auto& cache : neighbors_) total += bytes(cache);
  return total;
}

Ring sample_uniform_ball_ring(const ProximityIndex& prox, NodeId u,
                              std::size_t min_ball_size, std::size_t count,
                              Rng& rng) {
  RON_CHECK(min_ball_size >= 1 && min_ball_size <= prox.n(),
            "min_ball_size=" << min_ball_size << ", n=" << prox.n());
  const Dist r = prox.kth_radius(u, min_ball_size);
  const BallIds ball = prox.ball_ids(u, r);
  Ring ring;
  ring.scale = static_cast<double>(ball.size());
  ring.members.reserve(count);
  // Canonical draw: uniform rank resolved in ascending id order, so both
  // proximity backends sample the same nodes from the same rng stream.
  for (std::size_t i = 0; i < count; ++i) {
    ring.members.push_back(ball.at(rng.index(ball.size())));
  }
  std::sort(ring.members.begin(), ring.members.end());
  ring.members.erase(
      std::unique(ring.members.begin(), ring.members.end()),
      ring.members.end());
  return ring;
}

Ring sample_measure_ball_ring(const MeasureView& mu, NodeId u, Dist radius,
                              std::size_t count, Rng& rng) {
  Ring ring;
  ring.scale = radius;
  ring.members.reserve(count);
  // One ball per ring, not per sample: every draw comes from the same
  // B_u(radius), and materializing it dominates the draw itself.
  const BallIds ball = mu.prox().ball_ids(u, radius);
  for (std::size_t i = 0; i < count; ++i) {
    ring.members.push_back(mu.sample_in_ball(ball, radius, rng));
  }
  std::sort(ring.members.begin(), ring.members.end());
  ring.members.erase(
      std::unique(ring.members.begin(), ring.members.end()),
      ring.members.end());
  return ring;
}

Ring net_intersection_ring(const ProximityIndex& prox, NodeId u, Dist radius,
                           std::span<const NodeId> net_members) {
  Ring ring;
  ring.scale = radius;
  for (NodeId p : net_members) {
    if (prox.dist(u, p) <= radius) ring.members.push_back(p);
  }
  std::sort(ring.members.begin(), ring.members.end());
  return ring;
}

int ring_level_of(std::span<const Ring> rings, NodeId v) {
  for (std::size_t r = 0; r < rings.size(); ++r) {
    const auto& members = rings[r].members;
    if (std::binary_search(members.begin(), members.end(), v)) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

}  // namespace ron
