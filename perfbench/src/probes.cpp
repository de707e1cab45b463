#include "probes.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <ctime>

#include "src/util/thread_pool.h"

namespace perfbench {

namespace core = s2c2::core;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

void ForwardingPredictor::observe(std::size_t worker, double speed) {
  const std::int64_t t0 = now_ns();
  inner_->observe(worker, speed);
  tally_.ns += now_ns() - t0;
  ++tally_.calls;
}

double ForwardingPredictor::predict(std::size_t worker) {
  const std::int64_t t0 = now_ns();
  const double v = inner_->predict(worker);
  tally_.ns += now_ns() - t0;
  ++tally_.calls;
  return v;
}

PredictorFactoryOverride::PredictorFactoryOverride(PredictorTally& tally) {
  for (const core::StrategyKind kind : core::registered_strategies()) {
    if (!core::strategy_uses_predictions(kind)) continue;
    core::EngineFactory inner = core::engine_factory(kind);
    saved_.emplace_back(kind, inner);
    core::register_engine_factory(
        kind, [inner, &tally](core::EngineParams params) {
          if (params.predictor) {
            params.predictor = std::make_unique<ForwardingPredictor>(
                std::move(params.predictor), tally);
          }
          return inner(std::move(params));
        });
  }
}

PredictorFactoryOverride::~PredictorFactoryOverride() {
  for (auto& [kind, factory] : saved_) {
    core::register_engine_factory(kind, std::move(factory));
  }
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

BuildStamp build_stamp() {
  BuildStamp s;
  s.hardware_threads = s2c2::util::ThreadPool::hardware_threads();
#if defined(__clang__)
  s.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  s.compiler = std::string("gcc ") + __VERSION__;
#else
  s.compiler = "unknown";
#endif
  s.build_type = PERFBENCH_BUILD_TYPE;
  s.sanitized = PERFBENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  s.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  s.sanitized = true;
#endif
#endif
#ifndef NDEBUG
  s.asserts = true;
#endif
  s.commit = env_or("PERFBENCH_COMMIT", "unknown");
  s.source_sha256 = env_or("PERFBENCH_SOURCE_SHA256", "unknown");
  return s;
}

}  // namespace perfbench
