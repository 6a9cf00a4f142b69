// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID]
//
// One process runs one workload along the path a user runs: scenario ->
// snapshot file -> load_served_state cold start -> Server on loopback ->
// load over the socket from this process. --trace 0 measures the
// end-to-end metrics; --trace 1 runs the same layers stage by stage under
// spans and counting decorators and reports the per-layer metrics. The last
// line of stdout is the result object; README.md in this directory
// documents the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "churn/trace_generator.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "counting.h"
#include "labeling/neighbor_system.h"
#include "load.h"
#include "location/location_service.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "oracle/snapshot.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "served/server.h"
#include "smallworld/rings_model.h"
#include "spans.h"
#include "streams.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

// ---- workloads --------------------------------------------------------------

enum class Kind { kStaticLocate, kChurnLocate, kEstimate };

struct Workload {
  const char* name;
  const char* spec;
  ron::ProxBackend backend;
  Kind kind;
  /// Aggregate queries/s of the open-loop phase (0 = no open-loop phase).
  /// About a third of the closed-loop locate_qps measured at seed 1 (see
  /// README.md).
  double open_loop_qps;
};

constexpr Workload kWorkloads[] = {
    {"sparse-locate", "metric=geoline,base=1.0000001,n=30000",
     ron::ProxBackend::kSparse, Kind::kStaticLocate, 30000.0},
    {"dense-churn", "metric=geoline,base=1.3,n=768", ron::ProxBackend::kDense,
     Kind::kChurnLocate, 0.0},
    {"estimate-labels", "metric=clustered,seed=2025,per_cluster=16,n=512",
     ron::ProxBackend::kDense, Kind::kEstimate, 0.0},
};

constexpr std::size_t kObjects = 64;
constexpr std::size_t kReplicas = 3;
/// One engine worker: the engine then answers a frame inline on the server
/// loop thread. With two workers every frame is split across two threads
/// that each wait for a virtual CPU of the shared host, and the frame waits
/// for the later one. On the machine this benchmark was defined on, the
/// frame p50 of six runs (512 estimates a frame, one connection) spread by
/// 0.33 of its median with two workers and by 0.04 with one (README.md,
/// Noise).
constexpr unsigned kEngineThreads = 1;
constexpr std::size_t kEngineCache = 4096;
constexpr unsigned kBuildThreads = 1;
constexpr int kSetupReps = 3;
constexpr std::size_t kChurnChunk = 16;
/// One admin chunk is due every kChurnPeriodMs; a slower server makes the
/// admin sender run back to back instead. Three times the chunk round trip
/// measured at seed 1 (p50 of 78.6, 90.1 and 101.4 ms in three runs: 16 ops
/// at about 7 ms per join/leave, then an 18 ms commit and a 6 ms swap), so
/// churn keeps the server loop busy about a third of the time, the share of
/// closed-loop capacity the open-loop rate takes on sparse-locate.
constexpr std::uint64_t kChurnPeriodMs = 270;
constexpr double kWarmupSeconds = 0.5;
constexpr double kWindowSeconds = 0.5;
/// 64 frames of 512 pairs: 32768 pairs cycled in order, more than the
/// engine's LRU holds, so every estimate is a label merge.
constexpr std::size_t kEstimatePoolFrames = 64;
/// Seed reserved for checking a later claim on inputs not used while the
/// change was written (see README.md).
constexpr std::uint64_t kCheckSeed = 9173;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
};

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

double median(std::vector<double> v) {
  return ron::percentile(std::move(v), 0.5);
}

/// How long each served probe of the traced run lasts.
double probe_seconds(const Args& a) { return std::max(1.0, a.seconds / 4.0); }

/// Calls timed by each in-process probe of the traced run (one span each).
constexpr std::size_t kProbeWalks = 20000;
constexpr std::size_t kProbeBatches = 500;

// ---- reporting --------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string read_first(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Machine and build facts every result is stamped with.
void print_stamp(const Args& a) {
  std::cout << "{\"stamp\": {\"workload\": " << json_string(a.workload)
            << ", \"seed\": " << a.seed << ", \"check_seed\": " << kCheckSeed
            << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"seconds\": " << json_number(a.seconds)
            << ", \"cpu_model\": "
            << json_string(read_first("/proc/cpuinfo", "model name"))
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"mem_total\": "
            << json_string(read_first("/proc/meminfo", "MemTotal"))
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"ron_telemetry\": " << (ron::kTelemetryEnabled ? 1 : 0)
            << ", \"commit\": " << json_string(a.commit) << "}}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// What a run tallies across all its checked answers.
struct Outcome {
  Tally tally;
  Failures failures;
  bool correct = true;  // false: some answer was wrong
};

void absorb(Outcome& out, const Stream& stream) {
  out.tally.attempted += stream.tally().attempted;
  out.tally.failed += stream.tally().failed;
  out.failures.add(stream.failures());
}

// ---- set-up: build -> snapshot -> cold start -> first answered frame --------

/// One served instance plus the in-process reference its answers are
/// checked against. Members are declared in lifetime order: the stream
/// borrows the reference, the server borrows the state, the loop thread runs
/// the server.
struct Setup {
  std::size_t n = 0;
  std::unique_ptr<ron::MetricSpace> metric;  // reference metric (locate)
  ron::ObjectDirectory directory{1};         // reference directory (locate)
  /// The measured connection's stream, made while the offline build was
  /// alive: an estimate stream keeps reference answers, not the labeling.
  /// One connection, so that a frame never queues behind another
  /// connection's frame and its latency is the service time of a frame.
  std::unique_ptr<Stream> stream;
  std::string snapshot;
  ron::ServedState state;
  std::unique_ptr<ron::Server> server;
  std::exception_ptr loop_error;
  std::thread loop;
  std::uint16_t port = 0;

  double setup_s = 0.0;       // spec -> first answered frame, less the
                              // time spent making the checks' reference
  double cold_start_s = 0.0;  // load_served_state -> first answered frame

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    if (!loop.joinable()) return;
    server->stop();
    loop.join();
    if (loop_error) std::cerr << "perfbench: server loop failed\n";
  }

  /// Stops the server loop and rethrows anything it threw.
  void stop() {
    if (!loop.joinable()) return;
    server->stop();
    loop.join();
    if (loop_error) std::rethrow_exception(loop_error);
  }
};

ron::Client connect(const Setup& s) {
  ron::Client c;
  c.connect("127.0.0.1", s.port);
  return c;
}

/// A static-overlay locate stream over `s`'s reference, or an estimate
/// stream with a pool of `estimate_pool` frames answered by `labeling`.
std::unique_ptr<Stream> make_stream(const Workload& w, const Setup& s,
                                    const ron::DistanceLabeling* labeling,
                                    std::uint64_t seed,
                                    std::size_t estimate_pool) {
  if (w.kind == Kind::kEstimate) {
    return std::make_unique<EstimateStream>(seed, *labeling, estimate_pool);
  }
  return std::make_unique<LocateStream>(seed, s.n, kObjects, *s.metric,
                                        s.directory);
}

std::unique_ptr<Setup> set_up(const Workload& w, const Args& a,
                              std::uint64_t seed, Outcome& out) {
  auto s = std::make_unique<Setup>();
  s->snapshot = a.work_dir + "/" + w.name + ".ron";
  const std::uint64_t t0 = mono_ns();
  std::unique_ptr<Stream> first;
  std::uint64_t reference_ns = 0;  // the checks' own work, not set-up
  {
    // The offline build lives until its snapshot is written, as in a
    // publish-then-serve pipeline, so peak_rss_mb sees the larger of the
    // build and the served instance, not both.
    ron::ScenarioBuilder offline(ron::ScenarioSpec::parse(w.spec),
                                 kBuildThreads, w.backend);
    s->n = offline.n();
    const ron::DistanceLabeling* labeling = nullptr;
    if (w.kind == Kind::kEstimate) {
      labeling = &offline.labeling();
      ron::save_oracle(offline.spec(), offline.metric().name(), *labeling,
                       s->snapshot);
    } else {
      s->directory = offline.make_directory(kObjects, kReplicas);
      ron::save_directory(offline.spec(), s->directory, s->snapshot);
    }
    const std::uint64_t t_reference = mono_ns();
    if (w.kind != Kind::kEstimate) {
      s->metric = ron::MetricRegistry::global().make(offline.spec());
    }
    first = make_stream(w, *s, labeling, seed, 1);
    s->stream = make_stream(w, *s, labeling,
                            ron::Rng(seed).fork(1).uniform_u64(0, ~0ULL),
                            kEstimatePoolFrames);
    reference_ns = mono_ns() - t_reference;
  }
  const std::uint64_t t_cold = mono_ns();
  ron::ServedStateOptions opts;
  opts.engine.num_threads = kEngineThreads;
  opts.engine.cache_capacity = kEngineCache;
  opts.build_threads = kBuildThreads;
  opts.backend = w.backend;
  s->state = ron::load_served_state(s->snapshot, opts);
  s->server = std::make_unique<ron::Server>(s->state, ron::ServerOptions{});
  s->port = s->server->start();
  Setup* raw = s.get();
  s->loop = std::thread([raw] {
    try {
      raw->server->run();
    } catch (...) {
      raw->loop_error = std::current_exception();
    }
  });
  ron::Client client = connect(*s);
  const std::uint64_t id = client.next_request_id();
  client.send_frame(first->request(id));
  first->answer(id, client.recv_frame());
  const std::uint64_t t_first = mono_ns();
  s->setup_s = static_cast<double>(t_first - t0 - reference_ns) * 1e-9;
  s->cold_start_s = static_cast<double>(t_first - t_cold) * 1e-9;
  absorb(out, *first);
  return s;
}

// ---- phases -----------------------------------------------------------------

/// Closed loop on one new connection for `seconds`.
PhaseResult closed_phase(const Setup& s, Stream& stream, double seconds) {
  ron::Client c = connect(s);
  return run_closed_loop(c, stream, mono_ns() + to_ns(seconds));
}

/// Open loop at `qps` queries/s on one new connection for `seconds`.
PhaseResult open_phase(const Setup& s, Stream& stream, double qps,
                       double seconds) {
  const double frames_per_s = qps / static_cast<double>(stream.batch());
  ron::Client c = connect(s);
  return run_open_loop(c, stream, mono_ns() + 10'000'000,
                       static_cast<std::uint64_t>(1e9 / frames_per_s),
                       static_cast<std::size_t>(seconds * frames_per_s),
                       1'000'000'000);
}

std::vector<double> latencies_ms(const PhaseResult& p) {
  std::vector<double> v;
  v.reserve(p.frames.size());
  for (const FrameTimes& t : p.frames) v.push_back(t.latency_ms());
  return v;
}

std::vector<double> lateness_ms(const PhaseResult& p) {
  std::vector<double> v;
  v.reserve(p.frames.size());
  for (const FrameTimes& t : p.frames) v.push_back(t.lateness_ms());
  return v;
}

/// Per-window figures of measured phases. Frames are binned by answer time
/// into kWindowSeconds windows; each window gives a throughput and a p50
/// frame latency. A run reports medians over every window of every phase it
/// measured, so a slow patch of the (shared) machine moves them less than
/// it moves whole-phase figures. Tails need every frame: p99 is taken over
/// all of them.
struct Windows {
  std::vector<double> qps;
  std::vector<double> p50_ms;
  std::vector<double> all_ms;  // every frame's latency

  void add(const PhaseResult& p, std::size_t batch) {
    RON_CHECK(!p.frames.empty(), "perfbench: phase answered no frame");
    std::uint64_t start = p.frames.front().due_ns;
    std::uint64_t end = 0;
    for (const FrameTimes& t : p.frames) {
      start = std::min(start, t.due_ns);
      end = std::max(end, t.done_ns);
    }
    const std::uint64_t width = to_ns(kWindowSeconds);
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>((end - start) / width));
    std::vector<std::vector<double>> bins(count);
    for (const FrameTimes& t : p.frames) {
      const auto k = static_cast<std::size_t>((t.done_ns - start) / width);
      if (k < count) bins[k].push_back(t.latency_ms());
    }
    for (const std::vector<double>& bin : bins) {
      if (bin.empty()) continue;
      qps.push_back(static_cast<double>(bin.size() * batch) / kWindowSeconds);
      p50_ms.push_back(ron::percentile(bin, 0.5));
    }
    for (const FrameTimes& t : p.frames) all_ms.push_back(t.latency_ms());
  }
};

ron::ChurnTrace churn_trace_for(const ron::OverlayMutator& m,
                                std::size_t ops, std::uint64_t seed) {
  ron::ChurnTraceParams params;
  params.ops = ops;
  return ron::generate_churn_trace(m, params, seed);
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

/// What the measured phases of a run collect across its set-ups.
struct Measured {
  Windows closed;  // closed-loop frames: query_qps and query_p*_ms
  Windows open;    // open-loop frames (sparse-locate): locate_p*_ms
  std::vector<double> gen_lag_ms;
  ChurnRun churn;      // merged over set-ups
};

/// Measures one served instance for `seconds` (after a warm-up).
void measure(const Workload& w, const Setup& s, std::uint64_t seed,
             double seconds, Measured& m, Outcome& out) {
  if (w.kind == Kind::kChurnLocate) {
    QuerierGate gate(*s.state.mutator);
    // Enough ops that the trace outlasts the phase at the admin schedule.
    const ron::ChurnTrace trace = churn_trace_for(
        *s.state.mutator,
        kChurnChunk * static_cast<std::size_t>(
                          seconds * 1000.0 / kChurnPeriodMs + 2),
        seed);
    LocateStream locates(seed, s.n, kObjects, gate);
    closed_phase(s, locates, kWarmupSeconds);
    const std::uint64_t deadline = mono_ns() + to_ns(seconds);
    ChurnRun churn;
    std::exception_ptr churn_error;
    std::thread admin([&] {
      try {
        ron::Client c = connect(s);
        churn = run_churn_admin(c, trace, kChurnChunk,
                                kChurnPeriodMs * 1'000'000, gate, deadline);
      } catch (...) {
        churn_error = std::current_exception();
      }
    });
    const PhaseResult phase = closed_phase(s, locates, seconds);
    admin.join();
    if (churn_error) std::rethrow_exception(churn_error);
    absorb(out, locates);
    m.closed.add(phase, locates.batch());
    out.tally.attempted += churn.ops_attempted;
    out.tally.failed += churn.ops_attempted - churn.ops_acked;
    if (!churn.epochs_increasing || churn.chunks_failed != 0 ||
        churn.round_trip_ms.empty()) {
      out.correct = false;
    }
    m.churn.round_trip_ms.insert(m.churn.round_trip_ms.end(),
                                 churn.round_trip_ms.begin(),
                                 churn.round_trip_ms.end());
    m.churn.ops_acked += churn.ops_acked;
    return;
  }
  Stream& stream = *s.stream;
  const std::size_t batch = stream.batch();
  closed_phase(s, stream, kWarmupSeconds);
  if (w.kind == Kind::kStaticLocate) {
    // The listed query_p50_ms comes from the closed loop, which gets the
    // larger share; the open loop, timed from each frame's due time, gives
    // the report-only locate_p*_ms.
    m.closed.add(closed_phase(s, stream, seconds * 3.0 / 4.0), batch);
    const PhaseResult open =
        open_phase(s, stream, w.open_loop_qps, seconds / 4.0);
    m.open.add(open, batch);
    for (const FrameTimes& t : open.frames) {
      m.gen_lag_ms.push_back(t.lateness_ms());
    }
  } else {
    m.closed.add(closed_phase(s, stream, seconds), batch);
  }
  absorb(out, stream);
}

/// kSetupReps times: set up from the spec, then measure for a share of
/// --seconds. Spreading the measurement over the whole run, between the
/// set-ups, averages over more of the machine's slow and fast patches.
void run_end_to_end(const Workload& w, const Args& a, Report& r,
                    Outcome& out) {
  std::vector<double> setups;
  Measured m;
  double rss_mb = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t seed =
        ron::Rng(a.seed).fork(static_cast<std::uint64_t>(rep) + 1)
            .uniform_u64(0, ~0ULL);
    // The previous instance has shut down before this one builds.
    const std::unique_ptr<Setup> s = set_up(w, a, seed, out);
    setups.push_back(s->setup_s);
    measure(w, *s, seed, a.seconds / kSetupReps, m, out);
    // One served instance's high-water mark. Later set-ups in this process
    // land in other threads' malloc arenas and grow the heap in a way a
    // process that serves once never does.
    if (rep == 0) rss_mb = peak_rss_mb();
    s->stop();
  }
  if (out.failures.wrong() != 0) out.correct = false;

  const double qps = median(m.closed.qps);
  const double p50 = median(m.closed.p50_ms);
  const double p99 = ron::percentile(m.closed.all_ms, 0.99);
  const std::string kind = w.kind == Kind::kEstimate ? "estimate" : "locate";
  r.set("setup_s", median(setups), "s");
  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("query_qps", qps, "1/s");
  r.set("query_p50_ms", p50, "ms");
  r.set("query_p99_ms", p99, "ms");
  r.set("query_frames", static_cast<double>(m.closed.all_ms.size()), "count");
  r.set("query_windows", static_cast<double>(m.closed.p50_ms.size()), "count");
  r.set(kind + "_qps", qps, "1/s");
  if (w.kind == Kind::kStaticLocate) {
    // Open loop: whole-phase percentiles, each frame timed from its due time.
    r.set("locate_p50_ms", ron::percentile(m.open.all_ms, 0.5), "ms");
    r.set("locate_p99_ms", ron::percentile(m.open.all_ms, 0.99), "ms");
    r.set("open_loop_frames", static_cast<double>(m.open.all_ms.size()),
          "count");
    r.set("open_loop_qps", w.open_loop_qps, "1/s");
    r.set("gen_lag_ms_p99", ron::percentile(m.gen_lag_ms, 0.99), "ms");
  } else {
    r.set(kind + "_p50_ms", p50, "ms");
    r.set(kind + "_p99_ms", p99, "ms");
  }
  if (w.kind == Kind::kChurnLocate) {
    const std::vector<double>& rtt = m.churn.round_trip_ms;
    double busy_ms = 0.0;
    for (double v : rtt) busy_ms += v;
    r.set("churn_ops_per_s",
          static_cast<double>(m.churn.ops_acked) / (busy_ms * 1e-3), "1/s");
    r.set("churn_p50_ms", ron::percentile(rtt, 0.5), "ms");
    r.set("churn_p99_ms", ron::percentile(rtt, 0.99), "ms");
    r.set("churn_chunks", static_cast<double>(rtt.size()), "count");
  }
}

// ---- --trace 1: per-layer metrics -------------------------------------------

std::uint64_t rings_digest(const ron::RingsOfNeighbors& rings,
                           const ron::ScenarioSpec& spec,
                           const std::string& path) {
  ron::save_rings(rings, path, spec);
  const std::uint64_t sum = ron::inspect_snapshot(path).checksum;
  std::filesystem::remove(path);
  return sum;
}

std::uint64_t labeling_digest(const ron::DistanceLabeling& dls,
                              const ron::ScenarioSpec& spec,
                              const std::string& path) {
  ron::save_labeling(dls, path, spec);
  const std::uint64_t sum = ron::inspect_snapshot(path).checksum;
  std::filesystem::remove(path);
  return sum;
}

void set_percentiles(Report& r, const std::string& prefix,
                     const std::vector<double>& v, const std::string& unit,
                     double scale = 1.0) {
  r.set(prefix + "_p50", ron::percentile(v, 0.5) * scale, unit);
  r.set(prefix + "_p99", ron::percentile(v, 0.99) * scale, unit);
}

void set_counts(Report& r, const CountingProximity& prox) {
  const MetricCounts c = prox.counts();
  r.set("metric.ball_ids_calls", static_cast<double>(c.ball_ids_calls),
        "count");
  r.set("metric.ball_members", static_cast<double>(c.ball_members), "count");
  r.set("metric.row_calls", static_cast<double>(c.row_calls), "count");
  r.set("metric.distance_probes", static_cast<double>(c.distance_probes),
        "count");
  r.set("metric.query_s", c.query_s, "s");
}

/// What the traced build hands back to run_traced.
struct TracedBuild {
  double seconds = 0.0;  // the build stages, spans included
  std::uint64_t digest = 0;
};

/// Overlay stages of ScenarioBuilder::overlay(), one span each, then the
/// directory, the snapshot round trip and LocationService::locate walks.
TracedBuild traced_locate(const Args& a,
                          const ron::ScenarioSpec& spec,
                          const CountingProximity& prox, Tracer& tracer,
                          std::uint64_t root, std::uint64_t t0,
                          const std::string& snap, Report& layers,
                          Outcome& out) {
  TracedBuild b;
  const int l_max =
      static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1;
  std::unique_ptr<ron::NetHierarchy> nets;
  {
    const Scope span(tracer, "net.nets", root);
    nets = std::make_unique<ron::NetHierarchy>(prox, l_max);
  }
  std::unique_ptr<ron::MeasureView> mu;
  {
    const Scope span(tracer, "net.measure", root);
    mu = std::make_unique<ron::MeasureView>(prox, ron::doubling_measure(*nets));
  }
  std::unique_ptr<ron::RingsSmallWorld> model;
  {
    const Scope span(tracer, "rings.build", root);
    model = std::make_unique<ron::RingsSmallWorld>(
        prox, *mu, spec.ring_params(), spec.overlay_seed);
  }
  if (!prox.has_full_rows()) {
    const Scope span(tracer, "rings.seal", root);
    model->seal_rings();
  }
  b.seconds = static_cast<double>(mono_ns() - t0) * 1e-9;
  set_counts(layers, prox);
  const ron::RingsOfNeighbors& rings = model->rings();
  b.digest = rings_digest(rings, spec, snap);
  layers.set("net.nets_s", tracer.seconds("net.nets"), "s");
  layers.set("net.measure_s", tracer.seconds("net.measure"), "s");
  layers.set("rings.build_s", tracer.seconds("rings.build"), "s");
  if (!prox.has_full_rows()) {
    layers.set("rings.seal_s", tracer.seconds("rings.seal"), "s");
  }
  layers.set("rings.out_degree_avg", rings.avg_out_degree(), "count");
  layers.set("rings.bytes_per_node",
             static_cast<double>(rings.memory_bytes()) /
                 static_cast<double>(rings.n()),
             "bytes");

  // ScenarioBuilder::make_directory's draw, then the service over it.
  ron::ObjectDirectory dir(prox.n());
  std::unique_ptr<ron::LocationService> svc;
  {
    const Scope span(tracer, "location.directory", root);
    ron::Rng rng(spec.overlay_seed);
    for (std::size_t k = 0; k < kObjects; ++k) {
      dir.publish_random("obj" + std::to_string(k), kReplicas, rng);
    }
    svc = std::make_unique<ron::LocationService>(prox, rings, dir);
  }
  layers.set("location.directory_s", tracer.seconds("location.directory"),
             "s");
  {
    const Scope span(tracer, "oracle.save", root);
    ron::save_directory(spec, dir, snap);
  }
  {
    const Scope span(tracer, "oracle.load", root);
    ron::load_directory(snap);
  }

  ron::Rng rng(ron::Rng(a.seed).fork(7).uniform_u64(0, ~0ULL));
  const std::size_t bound = ron::location_hop_bound(prox.n());
  std::vector<double> hops;
  const std::uint64_t walks = tracer.begin("location.walks", root);
  for (std::uint64_t i = 1; i <= kProbeWalks; ++i) {
    const auto q = static_cast<ron::NodeId>(rng.index(prox.n()));
    const auto obj = static_cast<ron::ObjectId>(rng.index(kObjects));
    const std::uint64_t id = tracer.begin("location.walk", walks, i);
    const ron::LocateResult r = svc->locate(q, obj);
    tracer.end(id);
    ++out.tally.attempted;
    hops.push_back(static_cast<double>(r.hops));
    if (!r.found) {
      ++out.failures.not_found;
      ++out.tally.failed;
    } else if (r.hops > bound) {
      ++out.failures.hop_violations;
      ++out.tally.failed;
    }
  }
  tracer.end(walks);
  set_percentiles(layers, "location.walk_us",
                  tracer.durations_us("location.walk"), "us");
  double sum = 0.0;
  for (double h : hops) sum += h;
  layers.set("location.hops_mean", sum / static_cast<double>(hops.size()),
             "count");
  layers.set("location.hops_max", *std::max_element(hops.begin(), hops.end()),
             "count");
  return b;
}

/// Labeling stages of ScenarioBuilder::labeling(), one span each, then the
/// snapshot round trip and DistanceLabeling::estimate batches.
TracedBuild traced_labeling(const Args& a, const ron::ScenarioSpec& spec,
                            const ron::MetricSpace& metric,
                            const CountingProximity& prox, Tracer& tracer,
                            std::uint64_t root, std::uint64_t t0,
                            const std::string& snap, Report& layers) {
  TracedBuild b;
  std::unique_ptr<ron::NeighborSystem> sys;
  {
    const Scope span(tracer, "labeling.neighbor_system", root);
    sys = std::make_unique<ron::NeighborSystem>(prox, spec.delta);
  }
  std::unique_ptr<ron::DistanceLabeling> dls;
  {
    const Scope span(tracer, "labeling.labels", root);
    dls = std::make_unique<ron::DistanceLabeling>(*sys);
  }
  b.seconds = static_cast<double>(mono_ns() - t0) * 1e-9;
  set_counts(layers, prox);
  b.digest = labeling_digest(*dls, spec, snap);
  layers.set("labeling.neighbor_system_s",
             tracer.seconds("labeling.neighbor_system"), "s");
  layers.set("labeling.labels_s", tracer.seconds("labeling.labels"), "s");
  double bits = 0.0;
  for (ron::NodeId u = 0; u < dls->n(); ++u) {
    bits += static_cast<double>(dls->label_bits(u));
  }
  layers.set("labeling.label_bits_avg", bits / static_cast<double>(dls->n()),
             "count");
  {
    const Scope span(tracer, "oracle.save", root);
    ron::save_oracle(spec, metric.name(), *dls, snap);
  }
  {
    const Scope span(tracer, "oracle.load", root);
    ron::load_oracle(snap);
  }

  ron::Rng rng(ron::Rng(a.seed).fork(7).uniform_u64(0, ~0ULL));
  const std::uint64_t batches = tracer.begin("labeling.estimates", root);
  double sink = 0.0;
  for (std::uint64_t i = 1; i <= kProbeBatches; ++i) {
    const auto pairs =
        ron::random_query_pairs(EstimateStream::kBatch, dls->n(), rng);
    const std::uint64_t id =
        tracer.begin("labeling.estimate_batch", batches, i);
    for (const auto& [u, v] : pairs) {
      sink +=
          ron::DistanceLabeling::estimate(dls->label(u), dls->label(v)).upper;
    }
    tracer.end(id);
  }
  tracer.end(batches);
  RON_CHECK(sink >= 0.0, "perfbench: negative estimate sum");
  layers.set("labeling.estimate_us_p50",
             ron::percentile(tracer.durations_us("labeling.estimate_batch"),
                             0.5) /
                 static_cast<double>(EstimateStream::kBatch),
             "us");
  return b;
}

/// What the engine itself recorded of the batches it ran for `kind`
/// ("estimate" or "locate"): its ron_engine_<kind>_batch_seconds histogram.
ron::HistogramSnapshot engine_batch_seconds(const ron::OracleEngine& engine,
                                            const std::string& kind) {
  const std::string name = "ron_engine_" + kind + "_batch_seconds";
  for (const ron::Metric* m : engine.metrics().metrics()) {
    if (m->name() == name) {
      return dynamic_cast<const ron::Histogram&>(*m).snapshot();
    }
  }
  RON_CHECK(false, "perfbench: the engine exports no " << name);
  return {};
}

/// In-process engine batches of a frame's size. Call only while no server
/// loop dispatches to the engine.
void engine_batches(const Args& a, bool locate, ron::OracleEngine& engine,
                    Tracer& tracer) {
  ron::Rng rng(ron::Rng(a.seed).fork(8).uniform_u64(0, ~0ULL));
  const std::uint64_t root = tracer.begin("oracle.batches");
  for (std::uint64_t i = 1; i <= kProbeBatches; ++i) {
    if (locate) {
      std::vector<ron::LocateQuery> qs(LocateStream::kBatch);
      for (auto& q : qs) {
        q = {static_cast<ron::NodeId>(rng.index(engine.n())),
             static_cast<ron::ObjectId>(rng.index(kObjects))};
      }
      const std::uint64_t id = tracer.begin("oracle.batch", root, i);
      engine.locate_batch(qs);
      tracer.end(id);
    } else {
      const auto pairs =
          ron::random_query_pairs(EstimateStream::kBatch, engine.n(), rng);
      const std::uint64_t id = tracer.begin("oracle.batch", root, i);
      engine.estimate_batch(pairs);
      tracer.end(id);
    }
  }
  tracer.end(root);
}

/// OverlayMutator::apply per op, then commit() and OracleEngine::apply per
/// chunk of kChurnChunk, on a stopped served instance's mutator.
void churn_ops(const Args& a, Setup& s, Tracer& tracer, Report& layers,
               Outcome& out) {
  ron::OverlayMutator& m = *s.state.mutator;
  const ron::ChurnTrace trace = churn_trace_for(m, 8 * kChurnChunk, a.seed);
  const std::uint64_t root = tracer.begin("churn");
  for (std::size_t at = 0; at < trace.ops.size(); at += kChurnChunk) {
    const std::size_t end = std::min(trace.ops.size(), at + kChurnChunk);
    for (std::size_t i = at; i < end; ++i) {
      const ron::ChurnTrace op = slice(trace, i, i + 1);
      const Scope span(tracer, "churn.apply", root);
      m.apply(op);
    }
    std::shared_ptr<const ron::LocationEpoch> epoch;
    {
      const Scope span(tracer, "churn.commit", root);
      epoch = m.commit();
    }
    const Scope span(tracer, "churn.swap", root);
    s.state.engine->apply(std::move(epoch));
  }
  tracer.end(root);
  out.tally.attempted += trace.ops.size();
  set_percentiles(layers, "churn.apply_ms", tracer.durations_us("churn.apply"),
                  "ms", 1e-3);
  layers.set("churn.commit_ms_p50",
             ron::percentile(tracer.durations_us("churn.commit"), 0.5) * 1e-3,
             "ms");
  layers.set("churn.swap_ms_p50",
             ron::percentile(tracer.durations_us("churn.swap"), 0.5) * 1e-3,
             "ms");
  const ron::ChurnCounters& c = m.counters();
  layers.set("churn.ring_repairs", static_cast<double>(c.ring_repairs),
             "count");
  layers.set("churn.evictions", static_cast<double>(c.evictions), "count");
  layers.set("churn.inlink_inserts", static_cast<double>(c.inlink_inserts),
             "count");
}

void run_traced(const Workload& w, const Args& a, Report& layers,
                Outcome& out) {
  Tracer tracer;
  const bool locate = w.kind != Kind::kEstimate;
  const std::string snap = a.work_dir + "/" + w.name + ".traced.ron";

  // (a) The build ScenarioBuilder runs for the served overlay (or the
  // labeling), untraced and timed as one block.
  std::uint64_t untraced_digest = 0;
  double untraced_s = 0.0;
  {
    const std::uint64_t t0 = mono_ns();
    ron::ScenarioBuilder b(ron::ScenarioSpec::parse(w.spec), kBuildThreads,
                           w.backend);
    if (locate) {
      b.rings();
    } else {
      b.labeling();
    }
    untraced_s = static_cast<double>(mono_ns() - t0) * 1e-9;
    untraced_digest = locate ? rings_digest(b.rings(), b.spec(), snap)
                             : labeling_digest(b.labeling(), b.spec(), snap);
  }

  // (b) The same build stage by stage, under spans and counting decorators.
  TracedBuild traced;
  {
    const std::uint64_t root = tracer.begin("setup.traced");
    ron::ScenarioSpec spec = ron::ScenarioSpec::parse(w.spec);
    const std::uint64_t t0 = mono_ns();
    std::unique_ptr<ron::MetricSpace> metric;
    {
      const Scope span(tracer, "metric.make", root);
      metric = ron::MetricRegistry::global().make(spec);
    }
    spec.n = metric->n();  // canonical, as ScenarioBuilder does
    const CountingMetric counting(*metric);
    std::unique_ptr<ron::ProximityIndex> inner;
    {
      const Scope span(tracer, "metric.prox_build", root);
      inner = ron::make_proximity_index(counting, w.backend, kBuildThreads);
    }
    const CountingProximity prox(counting, *inner);
    traced = locate ? traced_locate(a, spec, prox, tracer, root, t0, snap,
                                    layers, out)
                    : traced_labeling(a, spec, *metric, prox, tracer, root,
                                      t0, snap, layers);
    tracer.end(root);
    layers.set("metric.prox_build_s", tracer.seconds("metric.prox_build"),
               "s");
    layers.set("oracle.save_s", tracer.seconds("oracle.save"), "s");
    layers.set("oracle.load_s", tracer.seconds("oracle.load"), "s");
    layers.set("oracle.snapshot_bytes",
               static_cast<double>(std::filesystem::file_size(snap)), "bytes");
    std::filesystem::remove(snap);
  }
  if (traced.digest != untraced_digest) {
    std::cerr << "perfbench: traced build digest " << traced.digest
              << " != untraced " << untraced_digest << "\n";
    out.correct = false;
  }
  layers.set("trace.overhead_share", traced.seconds / untraced_s - 1.0,
             "share");

  // (c) The served path, untraced, with one span per answered frame.
  std::unique_ptr<Setup> s = set_up(w, a, a.seed, out);
  layers.set("served.cold_start_s", s->cold_start_s, "s");
  const std::uint64_t served = tracer.begin("served");
  Stream& stream = *s->stream;
  closed_phase(*s, stream, kWarmupSeconds);
  // The engine's batch time for exactly the probe's frames, from its own
  // histogram, so that the served overhead is measured on the same frames
  // at the same moment, not against batches run later.
  const std::string kind = locate ? "locate" : "estimate";
  const ron::HistogramSnapshot before =
      engine_batch_seconds(*s->state.engine, kind);
  const PhaseResult frames = closed_phase(*s, stream, probe_seconds(a));
  const ron::HistogramSnapshot after =
      engine_batch_seconds(*s->state.engine, kind);
  trace_frames(tracer, served, frames);
  double frame_ms = 0.0;
  for (const double v : latencies_ms(frames)) frame_ms += v;
  RON_CHECK(after.count - before.count == frames.frames.size(),
            "perfbench: engine batches do not match the probe's frames");
  layers.set("served.overhead_us_mean",
             (frame_ms * 1e3 - (after.sum - before.sum) * 1e6) /
                 static_cast<double>(frames.frames.size()),
             "us");
  std::uint64_t sends_missed = 0;
  if (w.open_loop_qps > 0.0) {
    const PhaseResult open =
        open_phase(*s, stream, w.open_loop_qps, probe_seconds(a));
    trace_frames(tracer, served, open);
    layers.set("served.gen_lag_ms_p99",
               ron::percentile(lateness_ms(open), 0.99), "ms");
    sends_missed = open.sends_missed;
  }
  layers.set("served.sends_missed", static_cast<double>(sends_missed),
             "count");
  tracer.end(served);
  absorb(out, stream);
  s->stop();

  // (d) With the server loop (the engine's dispatcher) stopped: engine
  // batches, and churn on the served instance's own mutator.
  engine_batches(a, locate, *s->state.engine, tracer);
  const std::vector<double> batch_us = tracer.durations_us("oracle.batch");
  set_percentiles(layers, "oracle.batch_us", batch_us, "us");
  if (w.kind == Kind::kChurnLocate) {
    churn_ops(a, *s, tracer, layers, out);
  } else {
    // Honest zeros: these layers do no work on a static workload.
    layers.set("churn.ring_repairs", 0.0, "count");
    layers.set("churn.evictions", 0.0, "count");
    layers.set("churn.inlink_inserts", 0.0, "count");
  }
  if (locate) {
    layers.set("labeling.label_bits_avg", 0.0, "count");
  } else {
    layers.set("rings.out_degree_avg", 0.0, "count");
    layers.set("rings.bytes_per_node", 0.0, "bytes");
    layers.set("location.hops_max", 0.0, "count");
  }
  s.reset();
  if (out.failures.wrong() != 0) out.correct = false;
  tracer.write_json(a.work_dir + "/spans-" + w.name + "-" +
                    std::to_string(a.seed) + ".json");
}

// ---- main -------------------------------------------------------------------

/// The end-to-end and per-layer metrics BENCHMARK.json lists; the final
/// line reports exactly these. Everything else goes on the report line.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "query_p50_ms"};
const char* const kPerLayer[] = {
    "metric.prox_build_s",    "metric.query_s",
    "metric.ball_ids_calls",  "metric.ball_members",
    "metric.row_calls",       "metric.distance_probes",
    "rings.out_degree_avg",   "rings.bytes_per_node",
    "location.hops_max",      "oracle.save_s",
    "oracle.snapshot_bytes",  "oracle.load_s",
    "oracle.batch_us_p50",    "oracle.batch_us_p99",
    "served.cold_start_s",    "served.overhead_us_mean",
    "served.sends_missed",    "churn.ring_repairs",
    "churn.evictions",        "churn.inlink_inserts",
    "labeling.label_bits_avg", "trace.overhead_share"};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    RON_CHECK(i + 1 < argc, "perfbench: " << key << " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      RON_CHECK(value == "0" || value == "1", "perfbench: --trace 0|1");
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      RON_CHECK(false, "perfbench: unknown argument " << key);
    }
  }
  RON_CHECK(!a.work_dir.empty(), "perfbench: --work-dir is required");
  RON_CHECK(a.seconds > 0.0, "perfbench: --seconds must be positive");
  return a;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (a.workload == candidate.name) w = &candidate;
  }
  RON_CHECK(w != nullptr, "perfbench: unknown workload '" << a.workload
                                                           << "'");
  std::filesystem::create_directories(a.work_dir);
  print_stamp(a);

  Report report;
  Outcome out;
  if (a.trace) {
    run_traced(*w, a, report, out);
  } else {
    run_end_to_end(*w, a, report, out);
  }
  const std::span<const char* const> listed =
      a.trace ? std::span<const char* const>(kPerLayer)
              : std::span<const char* const>(kEndToEnd);
  std::map<std::string, Metric> final_metrics;
  for (const char* name : listed) {
    const auto it = report.metrics().find(name);
    RON_CHECK(it != report.metrics().end(),
              "perfbench: metric " << name << " was not measured");
    final_metrics.emplace(name, it->second);
  }

  const Failures& f = out.failures;
  const double failed_share =
      static_cast<double>(out.tally.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, out.tally.attempted));
  std::cout << "{\"report\": " << metrics_json(report.metrics())
            << ", \"failed_share\": " << json_number(failed_share)
            << ", \"failures\": {\"error_frames\": " << f.error_frames
            << ", \"not_found\": " << f.not_found
            << ", \"hop_violations\": " << f.hop_violations
            << ", \"not_nearest\": " << f.not_nearest
            << ", \"zero_holders\": " << f.zero_holders
            << ", \"wrong_estimates\": " << f.wrong_estimates
            << ", \"lost\": " << f.lost << "}}\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.tally.attempted
            << ", \"failed\": " << out.tally.failed
            << ", \"metrics\": " << metrics_json(final_metrics) << "}"
            << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
