// Measurement hooks the benchmark attaches from outside the program:
// a forwarding speed predictor, a registry override that installs it into
// engines the harness builds, process resource readings, the build stamp,
// and the result record every workload returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine_factory.h"
#include "src/predict/predictors.h"

namespace perfbench {

/// Host time and call count spent inside wrapped predictors.
struct PredictorTally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Forwards every call to the wrapped predictor unchanged (forecasts are
/// bit-identical) and adds the call's host time to a tally the caller
/// owns; the tally must outlive the predictor.
class ForwardingPredictor final : public s2c2::predict::SpeedPredictor {
 public:
  ForwardingPredictor(std::unique_ptr<s2c2::predict::SpeedPredictor> inner,
                      PredictorTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<s2c2::predict::SpeedPredictor> inner_;
  PredictorTally& tally_;
};

/// While alive, every engine built through core::make_engine for a kind
/// that uses predictions gets its EngineParams::predictor wrapped in a
/// ForwardingPredictor feeding `tally`. The previous factories are
/// restored on destruction. Not thread-safe: install it only around
/// serial harness calls.
class PredictorFactoryOverride {
 public:
  explicit PredictorFactoryOverride(PredictorTally& tally);
  ~PredictorFactoryOverride();
  PredictorFactoryOverride(const PredictorFactoryOverride&) = delete;
  PredictorFactoryOverride& operator=(const PredictorFactoryOverride&) =
      delete;

 private:
  std::vector<std::pair<s2c2::core::StrategyKind, s2c2::core::EngineFactory>>
      saved_;
};

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();
/// CPU seconds this process has used, all threads.
[[nodiscard]] double process_cpu_seconds();

/// How and where the benchmark was built and run.
struct BuildStamp {
  std::size_t hardware_threads = 0;
  std::string compiler;
  std::string build_type;
  bool sanitized = false;
  bool asserts = false;  // NDEBUG not defined
  std::string commit;         // from PERFBENCH_COMMIT, else "unknown"
  std::string source_sha256;  // from PERFBENCH_SOURCE_SHA256, else "unknown"

  /// Only optimized, uninstrumented, assert-free builds may be timed.
  [[nodiscard]] bool timing_allowed() const {
    return build_type == "Release" && !sanitized && !asserts;
  }
};

[[nodiscard]] BuildStamp build_stamp();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run returns: output-check counts, both metric
/// families (main prints one of them), and the determinism handle.
struct RunResult {
  std::string workload;
  std::uint64_t attempted = 0;  // checked operations
  std::uint64_t failed = 0;     // checked operations whose output was wrong
  std::vector<std::string> errors;  // every failed check, human-readable
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string fingerprint;
  std::size_t inner_jobs = 1;

  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
  void fail(std::string message) { errors.push_back(std::move(message)); }
};

}  // namespace perfbench
