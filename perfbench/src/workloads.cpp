#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "layers.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "rounds-lstm-n1000", "serve-block-n1000", "jobs-repro-n12"};
  return names;
}

RunResult run_workload(const std::string& name, const Options& opts,
                       SpanRecorder& spans) {
  if (name == "rounds-lstm-n1000") return run_rounds(opts, spans);
  if (name == "serve-block-n1000") return run_serve(opts, spans);
  if (name == "jobs-repro-n12") return run_jobs(opts, spans);
  throw std::invalid_argument("unknown workload " + name);
}

std::uint64_t derived_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : s2c2::util::mix64(seed + 0x9e37u * i);
}

void SpreadSetups::poll(double elapsed) {
  while (done_ < count_ &&
         elapsed * static_cast<double>(count_ + 1) >=
             seconds_ * static_cast<double>(done_ + 1)) {
    set_up_();
    ++done_;
  }
}

std::size_t pool_replay_width() {
  return std::min<std::size_t>(4, s2c2::util::ThreadPool::hardware_threads());
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"rounds_per_sec", e.rounds_per_sec, "1/s"},
      {"round_ms_p50", e.round_ms_p50, "ms"},
      {"requests_per_sec", e.requests_per_sec, "1/s"},
      {"suite_wall_s", e.suite_wall_s, "s"},
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"sim_round_latency_ms", e.sim_round_latency_ms, "sim_ms"},
  };
}

std::vector<Metric> per_layer_metrics(const PerLayer& p,
                                      const LayerReplay& r) {
  const double lookups = p.coding_decode_hits + p.coding_decode_misses;
  std::vector<Metric> m = {
      {"predict.ms_per_round", p.predict_ms_per_round, "ms"},
      {"predict.calls_per_round", p.predict_calls_per_round, "count"},
      {"predict.train_s", p.predict_train_s, "s"},
      {"core.round_ms", p.core_round_ms, "ms"},
      {"core.self_ms", p.core_self_ms, "ms"},
      {"harness.ms_per_round", p.harness_ms_per_round, "ms"},
      {"sched.reassigned_chunks_per_round",
       p.sched_reassigned_chunks_per_round, "count"},
      {"sim.timeout_rate", p.sim_timeout_rate, "fraction"},
      {"sim.mispredict_rate", p.sim_mispredict_rate, "fraction"},
      {"sim.wasted_fraction", p.sim_wasted_fraction, "fraction"},
      {"sim.request_p99_s", p.sim_request_p99_s, "sim_s"},
      {"sim.jobs_per_sec", p.sim_jobs_per_sec, "1/sim_s"},
      {"sim.s2c2_reduction_vs_mds", p.sim_s2c2_reduction_vs_mds, "fraction"},
      {"sim.s2c2_reduction_vs_replication",
       p.sim_s2c2_reduction_vs_replication, "fraction"},
      {"coding.decode_hits", p.coding_decode_hits, "count"},
      {"coding.decode_misses", p.coding_decode_misses, "count"},
      {"coding.decode_hit_rate",
       lookups > 0.0 ? p.coding_decode_hits / lookups : 0.0, "fraction"},
      {"coding.factor_flops_per_round", p.coding_factor_flops_per_round,
       "flop"},
      {"coding.solve_flops_per_round", p.coding_solve_flops_per_round,
       "flop"},
      {"pool.cpu_per_wall", p.pool_cpu_per_wall, "ratio"},
      {"harness.mean_batch_width", p.harness_mean_batch_width, "count"},
      {"harness.rounds", p.harness_rounds, "count"},
      {"harness.rounds_per_job", p.harness_rounds_per_job, "count"},
      {"harness.converged_jobs", p.harness_converged_jobs, "count"},
      {"apps.solution_error_max", p.apps_solution_error_max, "abs"},
      {"trace.overhead_frac", p.trace_overhead_frac, "fraction"},
  };
  append_replay_metrics(r, m);
  return m;
}

}  // namespace perfbench
