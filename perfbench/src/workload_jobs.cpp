// jobs-repro-n12: the repro_cli default suite — 4 apps x {s2c2, mds,
// replication, overdecomp} x {controlled, volatile}, 32 jobs — run
// serially through harness::run_job at the paper's cluster size (n = 12)
// with the LSTM speed predictor.
#include <cstdio>

#include "layers.h"
#include "quiet_cpus.h"
#include "src/harness/job_driver.h"
#include "src/harness/scenario_matrix.h"
#include "src/util/hash.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace s2c2;

namespace {

constexpr std::size_t kMinPasses = 2;
// Set-up repetitions spread over the timed passes; setup_s is their median.
constexpr std::size_t kSetupReps = 9;
constexpr double kSolutionErrorBound = 1e-8;
/// sim_round_latency_ms averages the S2C2 jobs of this many suites: the
/// timed one and, run once after the timed passes, the S2C2 jobs of
/// suites from derived seeds (the modelled latency differs by seed).
constexpr std::size_t kSimSeeds = 4;

harness::JobConfig base_config(std::uint64_t seed) {
  harness::JobConfig c;
  c.workers = 12;
  c.predictor = harness::PredictorKind::kLstm;
  c.seed = seed;
  c.inner_jobs = 1;
  return c;
}

std::vector<harness::JobConfig> suite(std::uint64_t seed) {
  const harness::JobGrid grid;
  std::vector<harness::JobConfig> jobs;
  for (const harness::JobApp app : grid.apps) {
    for (const core::StrategyKind s : grid.strategies) {
      for (const harness::TraceProfile t : grid.traces) {
        harness::JobConfig c = base_config(seed);
        c.app = app;
        c.strategy = s;
        c.trace = t;
        jobs.push_back(c);
      }
    }
  }
  return jobs;
}

/// Trains (and so memoizes) every predictor the suite's columns use;
/// returns the host seconds it took.
double train_suite_predictors(std::uint64_t seed, SpanRecorder& spans,
                              std::uint32_t parent) {
  const harness::JobGrid grid;
  const auto t0 = Clock::now();
  for (const harness::JobApp app : grid.apps) {
    for (const harness::TraceProfile t : grid.traces) {
      harness::JobConfig c = base_config(seed);
      c.app = app;
      c.trace = t;
      const auto s0 = Clock::now();
      const harness::ColumnPredictor b = harness::make_column_predictor(
          c.scenario(), harness::job_trace_column(app), t);
      spans.record("setup.predict.train", s0, Clock::now(), parent);
    }
  }
  return seconds_between(t0, Clock::now());
}

struct Pass {
  double seconds = 0.0;
  std::vector<double> job_seconds;  // host time of each run_job call
  harness::JobSuiteResult result;
  std::size_t rounds = 0;
  std::size_t predicting_rounds = 0;  // rounds of jobs that use a predictor
};

struct Passes {
  std::vector<Pass> passes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

void check_job(const harness::JobResult& j, RunResult& out) {
  ++out.attempted;
  if (j.failed || !(j.solution_error < kSolutionErrorBound)) {
    ++out.failed;
    out.fail(std::string("job ") + harness::job_app_name(j.app) + "/" +
             core::strategy_name(j.strategy) + ": " +
             (j.failed ? j.error : "solution error " +
                                       std::to_string(j.solution_error)));
  }
}

/// Runs suite passes until `seconds` have passed and kMinPasses ran,
/// polling `setups` (if any) between passes and moving to the quietest
/// CPU between jobs; passes must agree bit for bit.
Passes run_passes(const std::vector<harness::JobConfig>& jobs,
                  std::uint64_t seed, double seconds, PredictorTally* tally,
                  SpanRecorder& spans, RunResult& out, QuietCpus& quiet,
                  SpreadSetups* setups = nullptr) {
  Passes P;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if (setups != nullptr) setups->poll(elapsed);
    if (P.passes.size() >= kMinPasses && elapsed >= seconds) break;
    Pass p;
    p.result.base = base_config(seed);
    const std::uint32_t pass_id = spans.reserve();
    const auto t0 = Clock::now();
    for (const harness::JobConfig& c : jobs) {
      const PredictorTally before = tally != nullptr ? *tally : PredictorTally{};
      const std::uint32_t job_id = spans.reserve();
      quiet.pin();
      const auto j0 = Clock::now();
      p.result.jobs.push_back(harness::run_job(c));
      const auto j1 = Clock::now();
      p.job_seconds.push_back(seconds_between(j0, j1));
      if (tally != nullptr) {
        // The job's predictor time as one child span from the job's start.
        const std::int64_t ns = tally->ns - before.ns;
        spans.record("predict", j0, j0 + std::chrono::nanoseconds(ns), job_id,
                     static_cast<double>(tally->calls - before.calls));
      }
      const harness::JobResult& j = p.result.jobs.back();
      spans.record_reserved(job_id, "job", j0, j1, pass_id,
                            static_cast<double>(j.rounds));
      p.rounds += j.rounds;
      if (core::strategy_uses_predictions(j.strategy)) {
        p.predicting_rounds += j.rounds;
      }
    }
    const auto t1 = Clock::now();
    p.seconds = seconds_between(t0, t1);
    spans.record_reserved(pass_id, "suite", t0, t1);
    for (const harness::JobResult& j : p.result.jobs) check_job(j, out);
    if (!P.passes.empty() &&
        p.result.fingerprint() != P.passes.front().result.fingerprint()) {
      out.fail("jobs: repeated suite passes differ in fingerprint");
    }
    P.passes.push_back(std::move(p));
  }
  P.wall_s = seconds_between(start, Clock::now());
  P.cpu_s = process_cpu_seconds() - cpu0;
  return P;
}

double total_seconds(const Passes& P) {
  double s = 0.0;
  for (const Pass& p : P.passes) s += p.seconds;
  return s;
}

double total_rounds(const Passes& P) {
  double r = 0.0;
  for (const Pass& p : P.passes) r += static_cast<double>(p.rounds);
  return r;
}

/// Host seconds of the suite with every job at its least contended pass
/// (README: "Reading host time on a shared machine").
double best_suite_seconds(const Passes& P) {
  std::vector<double> best = P.passes.front().job_seconds;
  for (const Pass& p : P.passes) {
    for (std::size_t j = 0; j < best.size(); ++j) {
      best[j] = std::min(best[j], p.job_seconds[j]);
    }
  }
  double s = 0.0;
  for (const double b : best) s += b;
  return s;
}

/// Σ completion over a strategy's jobs.
double completion(const harness::JobSuiteResult& r, core::StrategyKind s) {
  double t = 0.0;
  for (const harness::JobResult& j : r.jobs) {
    if (j.strategy == s) t += j.completion_time;
  }
  return t;
}

/// Simulated-time summary of the suite's S2C2 jobs.
struct SimSummary {
  double round_latency = 0.0;
  double timeout_rate = 0.0;
  double mispredict_rate = 0.0;
  double wasted_fraction = 0.0;
  double reassigned_per_round = 0.0;
  double jobs_per_sec = 0.0;
};

SimSummary s2c2_summary(const harness::JobSuiteResult& r) {
  double rounds = 0.0, completion_s = 0.0, timeouts = 0.0, mispredict = 0.0;
  double useful = 0.0, wasted = 0.0, reassigned = 0.0, jobs = 0.0;
  for (const harness::JobResult& j : r.jobs) {
    if (j.strategy != core::StrategyKind::kS2C2) continue;
    const auto n = static_cast<double>(j.rounds);
    rounds += n;
    completion_s += j.completion_time;
    timeouts += j.timeout_rate * n;
    mispredict += j.misprediction_rate;
    useful += j.total_useful;
    wasted += j.total_wasted;
    reassigned += static_cast<double>(j.reassigned_chunks);
    jobs += 1.0;
  }
  SimSummary s;
  s.round_latency = completion_s / rounds;
  s.timeout_rate = timeouts / rounds;
  s.mispredict_rate = mispredict / jobs;
  s.wasted_fraction = wasted / (useful + wasted);
  s.reassigned_per_round = reassigned / rounds;
  s.jobs_per_sec = jobs / completion_s;
  return s;
}

}  // namespace

RunResult run_jobs(const Options& opts, SpanRecorder& spans) {
  RunResult out;
  out.workload = "jobs-repro-n12";
  out.inner_jobs = 1;
  const std::vector<harness::JobConfig> jobs = suite(opts.seed);
  const auto seconds = static_cast<double>(opts.seconds);
  SpanRecorder off(false);

  // Set-up is predictor training for the suite's eight (app, trace)
  // columns, repeated with derived seeds (training is memoized per seed)
  // and reported as the median of the repetitions spread over the timed
  // passes; the first repetition trains the models the timed passes use.
  // One untimed pass then warms the process.
  std::vector<double> setups;
  QuietCpus quiet;
  auto set_up = [&](std::size_t first, std::size_t reps, std::uint32_t parent) {
    for (std::size_t rep = first; rep < first + reps; ++rep) {
      quiet.pin();
      setups.push_back(
          train_suite_predictors(derived_seed(opts.seed, rep), spans, parent));
    }
  };
  const std::uint32_t setup_id = spans.reserve();
  const auto s0 = Clock::now();
  set_up(0, 1, setup_id);
  const double train_s = setups.front();
  {
    const auto w0 = Clock::now();
    for (const harness::JobConfig& c : jobs) check_job(harness::run_job(c), out);
    spans.record("setup.warmup_pass", w0, Clock::now(), setup_id);
  }
  spans.record_reserved(setup_id, "setup", s0, Clock::now());

  if (!opts.trace) {
    setups.clear();
    std::size_t next_rep = 1;
    SpreadSetups spread(kSetupReps, seconds, [&] { set_up(next_rep++, 1, 0); });
    const Passes P = run_passes(jobs, opts.seed, seconds, nullptr, off, out, quiet,
                                &spread);
    spread.finish();
    const harness::JobSuiteResult& r0 = P.passes.front().result;
    const double best = best_suite_seconds(P);
    const auto rounds = static_cast<double>(P.passes.front().rounds);
    std::printf("  %zu suite passes of %zu jobs, %zu rounds each; mean pass "
                "%.4f s, jobs at their fastest %.4f s\n",
                P.passes.size(), jobs.size(), P.passes.front().rounds,
                total_seconds(P) / static_cast<double>(P.passes.size()), best);
    EndToEnd e;
    e.rounds_per_sec = rounds / best;
    e.round_ms_p50 = 1e3 * best / rounds;
    e.requests_per_sec = static_cast<double>(jobs.size()) / best;
    e.suite_wall_s = best;
    e.setup_s = median(setups);
    e.peak_rss_mb = peak_rss_mb();
    harness::JobSuiteResult sim = r0;
    for (std::size_t i = 1; i < kSimSeeds; ++i) {
      for (const harness::JobConfig& c : suite(derived_seed(opts.seed, i))) {
        if (c.strategy != core::StrategyKind::kS2C2) continue;
        sim.jobs.push_back(harness::run_job(c));
        check_job(sim.jobs.back(), out);
      }
    }
    e.sim_round_latency_ms = 1e3 * s2c2_summary(sim).round_latency;
    out.end_to_end = end_to_end_metrics(e);
    out.fingerprint = r0.fingerprint();
    return out;
  }

  const Passes U = run_passes(jobs, opts.seed, seconds / 2, nullptr, off, out, quiet);
  PredictorTally tally;
  Passes T;
  {
    const PredictorFactoryOverride wrap(tally);
    T = run_passes(jobs, opts.seed, seconds / 2, &tally, spans, out, quiet);
  }
  const harness::JobSuiteResult& r0 = T.passes.front().result;
  if (r0.fingerprint() != U.passes.front().result.fingerprint()) {
    out.fail("jobs: traced and untraced passes differ in fingerprint");
  }

  // Replays at the logistic-regression job's shapes (n = 12, k = 10, 24
  // chunks per partition, a 240 x 36 operator), with allocation fed the
  // volatile column's true speeds.
  const harness::JobConfig lr = jobs.front();
  const harness::ScenarioConfig sc = lr.scenario();
  const harness::WorkloadShape ws =
      harness::workload_shape(harness::WorkloadKind::kLogisticRegression, sc);
  const core::ClusterSpec spec = harness::make_cluster(
      harness::TraceProfile::kVolatileCloud, sc,
      harness::trace_salt(opts.seed, harness::WorkloadKind::kLogisticRegression,
                          harness::TraceProfile::kVolatileCloud));
  std::vector<std::vector<double>> speed_sets;
  for (std::size_t r = 0; r < 64; ++r) {
    std::vector<double> v;
    for (const sim::SpeedTrace& t : spec.traces) {
      v.push_back(t.speed_at(1e-3 * static_cast<double>(r)));
    }
    speed_sets.push_back(std::move(v));
  }
  LayerShape shape;
  shape.n = lr.workers;
  shape.k = lr.effective_k();
  shape.chunks = lr.chunks_per_partition;
  shape.rows_per_partition = ws.rows / shape.k;
  shape.op_rows = ws.rows;
  shape.cols = ws.cols;
  shape.width = 1;
  shape.pool_width = pool_replay_width();
  const LayerReplay replay = replay_layers(shape, speed_sets, opts.seed, spans);

  const Pass& tp = T.passes.front();
  const double passes = static_cast<double>(T.passes.size());
  const double rounds = static_cast<double>(tp.rounds);
  const double predicting_rounds = passes * static_cast<double>(tp.predicting_rounds);
  const double predict_ms = 1e-6 * static_cast<double>(tally.ns);
  const SimSummary sim = s2c2_summary(r0);
  PerLayer p;
  p.predict_ms_per_round = predict_ms / predicting_rounds;
  p.predict_calls_per_round = static_cast<double>(tally.calls) / predicting_rounds;
  p.predict_train_s = train_s;
  p.core_round_ms = 1e3 * total_seconds(T) / total_rounds(T);
  p.core_self_ms = p.core_round_ms - predict_ms / total_rounds(T);
  p.harness_ms_per_round = 1e3 * total_seconds(U) / total_rounds(U);
  p.sched_reassigned_chunks_per_round = sim.reassigned_per_round;
  p.sim_timeout_rate = sim.timeout_rate;
  p.sim_mispredict_rate = sim.mispredict_rate;
  p.sim_wasted_fraction = sim.wasted_fraction;
  p.sim_jobs_per_sec = sim.jobs_per_sec;
  const double s2c2 = completion(r0, core::StrategyKind::kS2C2);
  p.sim_s2c2_reduction_vs_mds = 1.0 - s2c2 / completion(r0, core::StrategyKind::kMds);
  p.sim_s2c2_reduction_vs_replication =
      1.0 - s2c2 / completion(r0, core::StrategyKind::kReplication);
  for (const harness::JobResult& j : r0.jobs) {
    p.coding_decode_hits += static_cast<double>(j.decode_cache_hits);
    p.coding_decode_misses += static_cast<double>(j.decode_sets);
    p.harness_converged_jobs += j.converged ? 1.0 : 0.0;
    p.apps_solution_error_max = std::max(p.apps_solution_error_max, j.solution_error);
  }
  p.pool_cpu_per_wall = U.cpu_s / U.wall_s;
  p.harness_mean_batch_width = 1.0;
  p.harness_rounds = rounds;
  p.harness_rounds_per_job = rounds / static_cast<double>(jobs.size());
  p.trace_overhead_frac = best_suite_seconds(T) / best_suite_seconds(U) - 1.0;
  out.per_layer = per_layer_metrics(p, replay);
  out.fingerprint = r0.fingerprint();
  return out;
}

}  // namespace perfbench
