#include "streams.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "location/location_service.h"
#include "served/protocol.h"

namespace perfbench {

// ---- QuerierGate ------------------------------------------------------------

QuerierGate::QuerierGate(const ron::OverlayMutator& state)
    : safe_(state.n(), 0) {
  for (ron::NodeId u = 0; u < state.n(); ++u) safe_[u] = state.is_active(u);
  rebuild_list();
}

void QuerierGate::rebuild_list() {
  list_.clear();
  for (ron::NodeId u = 0; u < safe_.size(); ++u) {
    if (safe_[u] != 0) list_.push_back(u);
  }
}

std::vector<ron::NodeId> QuerierGate::acquire(ron::Rng& rng, std::size_t k) {
  const std::lock_guard<std::mutex> lock(mu_);
  RON_CHECK(!in_flight_, "perfbench: one locate frame in flight per gate");
  RON_CHECK(!list_.empty(), "perfbench: no active querier left");
  std::vector<ron::NodeId> out(k);
  for (ron::NodeId& q : out) q = rng.pick(list_);
  in_flight_ = true;
  in_flight_version_ = version_;
  return out;
}

void QuerierGate::release() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    in_flight_ = false;
  }
  cv_.notify_all();
}

void QuerierGate::before_chunk(const ron::ChurnTrace& chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  bool leaves = false;
  for (const ron::ChurnOp& op : chunk.ops) {
    if (op.kind == ron::ChurnOpKind::kLeave) {
      safe_[op.node] = 0;
      leaves = true;
    }
  }
  if (!leaves) return;
  rebuild_list();
  ++version_;
  cv_.wait(lock,
           [&] { return !in_flight_ || in_flight_version_ == version_; });
}

void QuerierGate::after_ack(const ron::ChurnTrace& chunk) {
  const std::lock_guard<std::mutex> lock(mu_);
  bool joins = false;
  // In op order: a node that joins and leaves again within the chunk ends
  // the chunk inactive.
  for (const ron::ChurnOp& op : chunk.ops) {
    if (op.kind == ron::ChurnOpKind::kJoin) {
      safe_[op.node] = 1;
      joins = true;
    } else if (op.kind == ron::ChurnOpKind::kLeave) {
      safe_[op.node] = 0;
    }
  }
  if (joins) rebuild_list();
}

// ---- LocateStream -----------------------------------------------------------

LocateStream::LocateStream(std::uint64_t seed, std::size_t n,
                           std::size_t objects,
                           const ron::MetricSpace& metric,
                           const ron::ObjectDirectory& directory)
    : rng_(seed),
      n_(n),
      objects_(objects),
      hop_bound_(ron::location_hop_bound(n)),
      metric_(&metric),
      directory_(&directory) {}

LocateStream::LocateStream(std::uint64_t seed, std::size_t n,
                           std::size_t objects, QuerierGate& gate)
    : rng_(seed),
      n_(n),
      objects_(objects),
      hop_bound_(ron::location_hop_bound(n)),
      gate_(&gate) {}

std::vector<std::uint8_t> LocateStream::request(std::uint64_t request_id) {
  std::vector<ron::LocateQuery> qs(kBatch);
  if (gate_ != nullptr) {
    const std::vector<ron::NodeId> who = gate_->acquire(rng_, kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) qs[i].first = who[i];
  } else {
    for (auto& q : qs) q.first = static_cast<ron::NodeId>(rng_.index(n_));
  }
  for (auto& q : qs) {
    q.second = static_cast<ron::ObjectId>(rng_.index(objects_));
  }
  std::vector<std::uint8_t> payload =
      ron::encode_locate_request(request_id, qs);
  pending_.emplace(request_id, std::move(qs));
  return payload;
}

void LocateStream::check(const ron::LocateQuery& q,
                         const ron::ServedLocate& a) {
  if (a.status == ron::LocateStatus::kZeroHolders) {
    if (directory_ != nullptr) {
      ++failures_.zero_holders;
      ++tally_.failed;
    }
    return;
  }
  const ron::LocateResult& r = a.result;
  if (!r.found) {
    ++failures_.not_found;
    ++tally_.failed;
    return;
  }
  if (r.hops > hop_bound_) {
    ++failures_.hop_violations;
    ++tally_.failed;
    return;
  }
  if (directory_ == nullptr) return;
  const std::span<const ron::NodeId> holders = directory_->holders(q.second);
  ron::Dist best = ron::kInfDist;
  for (ron::NodeId h : holders) {
    best = std::min(best, metric_->distance(q.first, h));
  }
  const bool is_holder =
      std::find(holders.begin(), holders.end(), r.holder) != holders.end();
  if (!is_holder || metric_->distance(q.first, r.holder) != best) {
    ++failures_.not_nearest;
    ++tally_.failed;
  }
}

void LocateStream::answer(std::uint64_t request_id,
                          const std::vector<std::uint8_t>& payload) {
  if (gate_ != nullptr) gate_->release();
  const auto it = pending_.find(request_id);
  RON_CHECK(it != pending_.end(), "perfbench: unknown locate frame");
  const std::vector<ron::LocateQuery> qs = std::move(it->second);
  pending_.erase(it);
  tally_.attempted += qs.size();
  ron::FrameView f = ron::parse_frame(payload);
  if (f.type != ron::MsgType::kLocateResult) {
    failures_.error_frames += qs.size();
    tally_.failed += qs.size();
    return;
  }
  const std::vector<ron::ServedLocate> answers =
      ron::decode_locate_result(f.body);
  if (answers.size() != qs.size()) {
    failures_.error_frames += qs.size();
    tally_.failed += qs.size();
    return;
  }
  for (std::size_t i = 0; i < qs.size(); ++i) check(qs[i], answers[i]);
}

void LocateStream::lost(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  const std::size_t count = it == pending_.end() ? kBatch : it->second.size();
  if (it != pending_.end()) pending_.erase(it);
  tally_.attempted += count;
  tally_.failed += count;
  failures_.lost += count;
}

// ---- EstimateStream ---------------------------------------------------------

EstimateStream::EstimateStream(std::uint64_t seed,
                               const ron::DistanceLabeling& reference,
                               std::size_t pool_frames) {
  ron::Rng rng(seed);
  pairs_.reserve(pool_frames);
  expected_.reserve(pool_frames);
  for (std::size_t f = 0; f < pool_frames; ++f) {
    pairs_.push_back(ron::random_query_pairs(kBatch, reference.n(), rng));
    std::vector<ron::Dist> want;
    want.reserve(kBatch);
    for (const auto& [u, v] : pairs_.back()) {
      want.push_back(ron::DistanceLabeling::estimate(reference.label(u),
                                                     reference.label(v))
                         .upper);
    }
    expected_.push_back(std::move(want));
  }
}

std::vector<std::uint8_t> EstimateStream::request(std::uint64_t request_id) {
  const std::size_t frame = next_++ % pairs_.size();
  pending_.emplace(request_id, frame);
  return ron::encode_estimate_request(request_id, pairs_[frame]);
}

void EstimateStream::answer(std::uint64_t request_id,
                            const std::vector<std::uint8_t>& payload) {
  const auto it = pending_.find(request_id);
  RON_CHECK(it != pending_.end(), "perfbench: unknown estimate frame");
  const std::vector<ron::Dist>& want = expected_[it->second];
  pending_.erase(it);
  tally_.attempted += want.size();
  ron::FrameView f = ron::parse_frame(payload);
  if (f.type != ron::MsgType::kEstimateResult) {
    failures_.error_frames += want.size();
    tally_.failed += want.size();
    return;
  }
  const std::vector<ron::Dist> got = ron::decode_estimate_result(f.body);
  if (got.size() != want.size()) {
    failures_.error_frames += want.size();
    tally_.failed += want.size();
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ++failures_.wrong_estimates;
      ++tally_.failed;
    }
  }
}

void EstimateStream::lost(std::uint64_t request_id) {
  pending_.erase(request_id);
  tally_.attempted += kBatch;
  tally_.failed += kBatch;
  failures_.lost += kBatch;
}

// ---- churn admin ------------------------------------------------------------

ron::ChurnTrace slice(const ron::ChurnTrace& trace, std::size_t begin,
                      std::size_t end) {
  ron::ChurnTrace out;
  out.objects = trace.objects;
  out.ops.assign(trace.ops.begin() + static_cast<std::ptrdiff_t>(begin),
                 trace.ops.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

ChurnRun run_churn_admin(ron::Client& admin, const ron::ChurnTrace& trace,
                         std::size_t chunk_ops, std::uint64_t period_ns,
                         QuerierGate& gate, std::uint64_t deadline_ns) {
  ChurnRun out;
  std::uint64_t last_epoch = 0;
  std::uint64_t due = mono_ns();
  for (std::size_t at = 0; at < trace.ops.size(); at += chunk_ops) {
    std::uint64_t now = mono_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = mono_ns();
    }
    if (now >= deadline_ns) break;
    due += period_ns;
    const ron::ChurnTrace chunk =
        slice(trace, at, std::min(trace.ops.size(), at + chunk_ops));
    out.ops_attempted += chunk.ops.size();
    gate.before_chunk(chunk);
    const std::uint64_t t0 = mono_ns();
    ron::ChurnResult r;
    try {
      r = admin.churn(chunk);
    } catch (const ron::Error&) {
      // The server's state no longer matches the trace: every later chunk
      // would be judged against the wrong state, so stop here.
      ++out.chunks_failed;
      break;
    }
    out.round_trip_ms.push_back(static_cast<double>(mono_ns() - t0) * 1e-6);
    if (r.ops_applied != chunk.ops.size()) ++out.chunks_failed;
    if (r.epoch_id <= last_epoch) out.epochs_increasing = false;
    last_epoch = r.epoch_id;
    out.ops_acked += r.ops_applied;
    gate.after_ack(chunk);
  }
  return out;
}

}  // namespace perfbench
