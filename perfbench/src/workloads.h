// The benchmark's workloads. Each runs the program through its public
// entry points for opts.seconds host seconds, checks every output, and
// returns both metric families; main prints the family --trace selects.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "args.h"
#include "probes.h"
#include "spans.h"

namespace perfbench {

/// Workload names, in the order `--workload all` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload by name. In a traced run (opts.trace) `spans`
/// receives every span and the result's per_layer metrics are filled;
/// otherwise the end-to-end metrics are.
[[nodiscard]] RunResult run_workload(const std::string& name,
                                     const Options& opts,
                                     SpanRecorder& spans);

RunResult run_rounds(const Options& opts, SpanRecorder& spans);
RunResult run_serve(const Options& opts, SpanRecorder& spans);
RunResult run_jobs(const Options& opts, SpanRecorder& spans);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
struct EndToEnd {
  double rounds_per_sec = 0.0;
  double round_ms_p50 = 0.0;
  double requests_per_sec = 0.0;
  double suite_wall_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double sim_round_latency_ms = 0.0;
};
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const EndToEnd& e);

/// The per-layer metrics every workload reports, in BENCHMARK.json order.
/// Layers a workload does not run read 0 (counts and rates only; every
/// host-time field is measured on every workload).
struct PerLayer {
  double predict_ms_per_round = 0.0;
  double predict_calls_per_round = 0.0;
  double predict_train_s = 0.0;
  double core_round_ms = 0.0;
  double core_self_ms = 0.0;
  double harness_ms_per_round = 0.0;
  double sched_reassigned_chunks_per_round = 0.0;
  double sim_timeout_rate = 0.0;
  double sim_mispredict_rate = 0.0;
  double sim_wasted_fraction = 0.0;
  double sim_request_p99_s = 0.0;
  double sim_jobs_per_sec = 0.0;
  double sim_s2c2_reduction_vs_mds = 0.0;
  double sim_s2c2_reduction_vs_replication = 0.0;
  double coding_decode_hits = 0.0;
  double coding_decode_misses = 0.0;
  double coding_factor_flops_per_round = 0.0;
  double coding_solve_flops_per_round = 0.0;
  double pool_cpu_per_wall = 0.0;
  double harness_mean_batch_width = 0.0;
  double harness_rounds = 0.0;
  double harness_rounds_per_job = 0.0;
  double harness_converged_jobs = 0.0;
  double apps_solution_error_max = 0.0;
  double trace_overhead_frac = 0.0;
};
struct LayerReplay;
[[nodiscard]] std::vector<Metric> per_layer_metrics(const PerLayer& p,
                                                    const LayerReplay& r);

/// Seed number `i` of a run: the run's own seed for i = 0, derived ones
/// after. Workloads use them for extra fleets and set-up repetitions.
[[nodiscard]] std::uint64_t derived_seed(std::uint64_t seed, std::size_t i);

/// Set-up repetitions spread over a timed loop, which calls poll() between
/// its samples: repetition i runs once (i + 1) / (count + 1) of `seconds`
/// have passed, and finish() runs any the loop ended before. Setting up
/// throughout the run keeps setup_s from following one contended stretch.
class SpreadSetups {
 public:
  SpreadSetups(std::size_t count, double seconds, std::function<void()> set_up)
      : count_(count), seconds_(seconds), set_up_(std::move(set_up)) {}
  void poll(double elapsed);
  void finish() { poll(seconds_); }

 private:
  std::size_t count_;
  double seconds_;
  std::size_t done_ = 0;
  std::function<void()> set_up_;
};

/// Width of the replayed ThreadPool::parallel_for: min(4, hardware).
[[nodiscard]] std::size_t pool_replay_width();

}  // namespace perfbench
