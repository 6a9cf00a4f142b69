#include "scenario/scenario_builder.h"

#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "telemetry/clock.h"

namespace ron {

template <typename BuildFn>
void ScenarioBuilder::timed_stage(const char* name, BuildFn&& build) {
  const Stopwatch stage_watch(Clock::real());
  build();
  metrics_.gauge(name).set(stage_watch.elapsed_seconds());
}

ScenarioBuilder::ScenarioBuilder(const ScenarioSpec& spec,
                                 unsigned num_threads, ProxBackend backend,
                                 const MetricRegistry& registry)
    : spec_(spec) {
  timed_stage("ron_build_metric_seconds",
              [&] { metric_ = registry.make(spec_); });
  spec_.n = metric_->n();  // canonical: families may round n up
  timed_stage("ron_build_prox_seconds", [&] {
    prox_ = make_proximity_index(*metric_, backend, num_threads);
  });
  metrics_.gauge("ron_build_n").set(static_cast<double>(prox_->n()));
}

const NeighborSystem& ScenarioBuilder::neighbor_system() {
  if (sys_ == nullptr) {
    RON_CHECK(prox_->has_full_rows(),
              "scenario: the labeling pipeline (NeighborSystem) needs full "
              "proximity rows; rebuild with the dense backend "
              "(--backend dense, n <= " << DenseProximityIndex::kMaxDenseNodes
              << ")");
    timed_stage("ron_build_neighbor_system_seconds", [&] {
      sys_ = std::make_unique<NeighborSystem>(*prox_, spec_.delta);
    });
  }
  return *sys_;
}

const DistanceLabeling& ScenarioBuilder::labeling() {
  if (labeling_ == nullptr) {
    // Build the dependency first so the labeling gauge reports only its
    // own stage, not a hidden neighbor-system build.
    neighbor_system();
    timed_stage("ron_build_labeling_seconds", [&] {
      labeling_ = std::make_unique<DistanceLabeling>(*sys_);
    });
  }
  return *labeling_;
}

DistanceLabeling ScenarioBuilder::take_labeling() {
  labeling();  // ensure built
  DistanceLabeling out = std::move(*labeling_);
  labeling_.reset();
  return out;
}

const LocationOverlay& ScenarioBuilder::overlay() {
  if (overlay_ == nullptr) {
    // LocationOverlay's own pipeline, one gauge per stage. The nets only
    // feed the measure, so they are dropped before the rings are sampled.
    timed_stage("ron_build_overlay_seconds", [&] {
      std::unique_ptr<NetHierarchy> nets;
      timed_stage("ron_build_nets_seconds", [&] {
        nets = std::make_unique<NetHierarchy>(*prox_,
                                              overlay_net_top_level(*prox_));
      });
      timed_stage("ron_build_measure_seconds", [&] {
        measure_ =
            std::make_unique<MeasureView>(*prox_, doubling_measure(*nets));
      });
      nets.reset();
      timed_stage("ron_build_rings_seconds", [&] {
        overlay_ = std::make_unique<LocationOverlay>(
            *measure_, spec_.ring_params(), spec_.overlay_seed);
      });
      // Large sparse-backend builds are served through LocationService
      // (visitation accessors), so compact the rings; small dense builds
      // keep the mutable form for churn and the span accessors.
      timed_stage("ron_build_seal_seconds", [&] {
        if (sparse_backend()) overlay_->seal_rings();
      });
    });
  }
  return *overlay_;
}

ObjectDirectory ScenarioBuilder::make_directory(std::size_t objects,
                                                std::size_t replicas,
                                                std::uint64_t seed) const {
  RON_CHECK(objects >= 1, "scenario: directory needs >= 1 object");
  ObjectDirectory dir(prox_->n());
  Rng rng(seed);
  for (std::size_t k = 0; k < objects; ++k) {
    dir.publish_random("obj" + std::to_string(k), replicas, rng);
  }
  return dir;
}

}  // namespace ron
