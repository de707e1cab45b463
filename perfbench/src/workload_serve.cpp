// serve-block-n1000: coalesced serving through harness::run_serve — s2c2
// on the stable trace at n = 1000, every product verified, open-loop
// arrivals in simulated time at load factor 4, batches of up to 16
// requests, served on one thread (inner_jobs 1): at min(4, hardware) the
// inner pool kept the process at 0.99 CPU seconds per wall second — it
// found nothing to run in parallel — while tying each call's time to the
// contention on three more vCPUs of a shared host.
//
// Load factor 4 saturates the coalescer from the first rounds of a call:
// 72-74 rounds per 1024 requests over seeds 31-35, so host time per round
// does not follow the seed. At load factor 2 it was 76-83 rounds, and at
// load factor 1 the functional fleet sits at its critical point (mean
// batch width 3.2-15.3 over seeds 1-10).
#include <cstdio>
#include <map>

#include "layers.h"
#include "quiet_cpus.h"
#include "src/harness/scenario_matrix.h"
#include "src/harness/serve.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace s2c2;

namespace {

constexpr std::size_t kWorkers = 1000;
constexpr std::size_t kK = 998;
constexpr std::size_t kChunks = 8;
constexpr std::size_t kRowsPerPartition = 16;
constexpr std::size_t kCols = 48;
constexpr std::size_t kRequests = 256;  // per run_serve call
constexpr std::size_t kInnerJobs = 1;
constexpr double kLoadFactor = 4.0;
constexpr std::size_t kMinPasses = 2;
// Set-up repetitions spread over the timed calls; setup_s is their median.
constexpr std::size_t kSetupReps = 9;
/// The untraced run serves this many request streams and fleets (seeds
/// derived from --seed) in turn, so one seed does not set the numbers
/// alone; their requests together (1024) carry the modelled p99.
constexpr std::size_t kStreams = 4;
constexpr double kTolerance = 1e-7;

harness::ServeConfig serve_config(std::uint64_t seed, std::size_t requests) {
  harness::ServeConfig c;
  c.label = "serve-block-n1000";
  c.strategy = core::StrategyKind::kS2C2;
  c.trace = harness::TraceProfile::kStableCloud;
  c.workers = kWorkers;
  c.k = kK;
  c.chunks_per_partition = kChunks;
  c.requests = requests;
  c.load_factor = kLoadFactor;
  c.max_batch = 16;
  c.functional = true;
  c.op_rows = kRowsPerPartition * kK;
  c.op_cols = kCols;
  c.seed = seed;
  c.inner_jobs = kInnerJobs;
  return c;
}

struct Pass {
  std::size_t stream = 0;  // index into the configs run_passes was given
  double seconds = 0.0;
  harness::ServeResult result;
};

/// Checks one serve result: every request completed and verified within
/// tolerance. Returns the number of failed requests.
std::uint64_t check(const harness::ServeResult& r, std::size_t requests,
                    RunResult& out) {
  out.attempted += requests;
  const bool ok = r.completed == requests && r.rejected == 0 &&
                  r.products_verified == r.completed &&
                  r.max_error <= kTolerance;
  if (ok) return 0;
  out.fail("serve: completed " + std::to_string(r.completed) + "/" +
           std::to_string(requests) + ", verified " +
           std::to_string(r.products_verified) + ", max error " +
           std::to_string(r.max_error));
  return requests - std::min(requests, r.products_verified);
}

struct Passes {
  std::vector<Pass> passes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Serves the configs in turn until `seconds` have passed and each ran
/// kMinPasses times, polling `setups` (if any) and moving to the quietest
/// CPU between calls; a config's repeated calls must agree bit for bit.
Passes run_passes(const std::vector<harness::ServeConfig>& cfgs,
                  double seconds, SpanRecorder& spans, RunResult& out,
                  QuietCpus& quiet, SpreadSetups* setups = nullptr) {
  Passes P;
  std::vector<std::string> fingerprints(cfgs.size());
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if (setups != nullptr) setups->poll(elapsed);
    if (P.passes.size() >= kMinPasses * cfgs.size() && elapsed >= seconds) {
      break;
    }
    Pass p;
    p.stream = P.passes.size() % cfgs.size();
    const harness::ServeConfig& cfg = cfgs[p.stream];
    quiet.pin();
    const auto t0 = Clock::now();
    p.result = harness::run_serve(cfg);
    const auto t1 = Clock::now();
    p.seconds = seconds_between(t0, t1);
    spans.record("serve.run_serve", t0, t1, 0,
                 static_cast<double>(p.result.rounds));
    out.failed += check(p.result, cfg.requests, out);
    std::string& fp = fingerprints[p.stream];
    if (fp.empty()) {
      fp = p.result.fingerprint();
    } else if (fp != p.result.fingerprint()) {
      out.fail("serve: repeated run_serve calls differ in fingerprint");
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
  for (const Pass& p : P.passes) r += static_cast<double>(p.result.rounds);
  return r;
}

/// The least contended pass of one stream (README: "Reading host time on
/// a shared machine").
const Pass& fastest_pass(const Passes& P, std::size_t stream = 0) {
  const Pass* best = nullptr;
  for (const Pass& p : P.passes) {
    if (p.stream == stream && (best == nullptr || p.seconds < best->seconds)) {
      best = &p;
    }
  }
  return *best;
}

/// Mean modelled round latency: each coalesced round's completion minus
/// its dispatch, once per round.
double sim_round_latency(const harness::ServeResult& r) {
  std::map<std::size_t, double> by_round;
  for (const harness::RequestOutcome& o : r.outcomes) {
    if (!o.rejected) by_round.emplace(o.round, o.completion - o.dispatch);
  }
  double s = 0.0;
  for (const auto& [round, latency] : by_round) s += latency;
  return by_round.empty() ? 0.0 : s / static_cast<double>(by_round.size());
}

/// Modelled latencies of every completed request of the results.
std::vector<double> request_latencies(
    const std::vector<const harness::ServeResult*>& results) {
  std::vector<double> v;
  for (const harness::ServeResult* r : results) {
    for (const harness::RequestOutcome& o : r->outcomes) {
      if (!o.rejected) v.push_back(o.latency());
    }
  }
  return v;
}

}  // namespace

RunResult run_serve(const Options& opts, SpanRecorder& spans) {
  RunResult out;
  out.workload = "serve-block-n1000";
  out.inner_jobs = kInnerJobs;
  const harness::ServeConfig cfg = serve_config(opts.seed, kRequests);
  SpanRecorder off(false);
  QuietCpus quiet;

  // Set-up happens inside run_serve (cluster, operator, encode, probe
  // round). It is measured as a run_serve call serving one request; the
  // first such call, before the timed calls, is not counted.
  std::vector<double> setups;
  auto set_up = [&](std::size_t reps, std::uint32_t parent) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      quiet.pin();
      const auto t0 = Clock::now();
      const harness::ServeResult r = harness::run_serve(serve_config(opts.seed, 1));
      const auto t1 = Clock::now();
      setups.push_back(seconds_between(t0, t1));
      spans.record("setup.run_serve_one_request", t0, t1, parent);
      out.failed += check(r, 1, out);
    }
  };
  {
    const std::uint32_t setup_id = spans.reserve();
    const auto s0 = Clock::now();
    set_up(1, setup_id);
    // One untimed call with a quarter of the requests warms the allocator
    // and page cache the way a warm server would be.
    const auto w0 = Clock::now();
    const harness::ServeResult warm =
        harness::run_serve(serve_config(opts.seed, kRequests / 4));
    spans.record("setup.warmup", w0, Clock::now(), setup_id);
    out.failed += check(warm, kRequests / 4, out);
    spans.record_reserved(setup_id, "setup", s0, Clock::now());
  }

  const auto seconds = static_cast<double>(opts.seconds);
  if (!opts.trace) {
    std::vector<harness::ServeConfig> cfgs;
    for (std::size_t i = 0; i < kStreams; ++i) {
      cfgs.push_back(serve_config(derived_seed(opts.seed, i), kRequests));
    }
    setups.clear();
    SpreadSetups spread(kSetupReps, seconds, [&] { set_up(1, 0); });
    const Passes P = run_passes(cfgs, seconds, off, out, quiet, &spread);
    spread.finish();
    double best_s = 0.0;
    double rounds = 0.0;
    double completed = 0.0;
    double sim_ms = 0.0;
    for (std::size_t i = 0; i < kStreams; ++i) {
      const Pass& best = fastest_pass(P, i);
      const harness::ServeResult& r = best.result;
      std::printf("  stream %zu: fingerprint %s, %zu rounds per call, mean "
                  "batch width %.3f, modelled round %.6g ms, max error %.3g, "
                  "fastest call %.4f s\n",
                  i, r.fingerprint().c_str(), r.rounds,
                  static_cast<double>(r.completed) / static_cast<double>(r.rounds),
                  1e3 * sim_round_latency(r), r.max_error, best.seconds);
      best_s += best.seconds;
      rounds += static_cast<double>(r.rounds);
      completed += static_cast<double>(r.completed);
      sim_ms += 1e3 * sim_round_latency(r) / kStreams;
    }
    std::printf("  %zu run_serve calls of %zu requests; mean call %.4f s\n",
                P.passes.size(), kRequests,
                total_seconds(P) / static_cast<double>(P.passes.size()));
    EndToEnd e;
    e.rounds_per_sec = rounds / best_s;
    e.round_ms_p50 = 1e3 * best_s / rounds;
    e.requests_per_sec = completed / best_s;
    e.suite_wall_s = best_s;
    e.setup_s = median(setups);
    e.peak_rss_mb = peak_rss_mb();
    e.sim_round_latency_ms = sim_ms;
    out.end_to_end = end_to_end_metrics(e);
    // The first stream is the one a traced run replays.
    out.fingerprint = fastest_pass(P, 0).result.fingerprint();
    return out;
  }

  const Passes U = run_passes({cfg}, seconds / 2, off, out, quiet);
  const Passes T = run_passes({cfg}, seconds / 2, spans, out, quiet);
  const harness::ServeResult& r0 = T.passes.front().result;
  if (r0.fingerprint() != U.passes.front().result.fingerprint()) {
    out.fail("serve: traced and untraced runs differ in fingerprint");
  }

  harness::ScenarioConfig sc;
  sc.workers = kWorkers;
  sc.k = kK;
  sc.chunks_per_partition = kChunks;
  sc.seed = opts.seed;
  sc.functional = true;
  const core::ClusterSpec spec = harness::make_cluster(
      cfg.trace, sc,
      harness::trace_salt(opts.seed, harness::WorkloadKind::kLogisticRegression,
                          cfg.trace));
  std::vector<std::vector<double>> speed_sets;
  for (std::size_t r = 0; r < 64; ++r) {
    std::vector<double> v;
    for (const sim::SpeedTrace& t : spec.traces) {
      v.push_back(t.speed_at(1e-4 * static_cast<double>(r)));
    }
    speed_sets.push_back(std::move(v));
  }
  const double mean_width =
      static_cast<double>(r0.completed) / static_cast<double>(r0.rounds);

  LayerShape shape;
  shape.n = kWorkers;
  shape.k = kK;
  shape.chunks = kChunks;
  shape.rows_per_partition = kRowsPerPartition;
  shape.op_rows = kRowsPerPartition * kK;
  shape.cols = kCols;
  shape.width = static_cast<std::size_t>(std::lround(mean_width));
  shape.pool_width = pool_replay_width();
  const LayerReplay replay = replay_layers(shape, speed_sets, opts.seed, spans);

  const double rounds = static_cast<double>(r0.rounds);
  PerLayer p;
  // Serving reads true trace speeds (oracle): its predict layer is one
  // SpeedTrace lookup per worker per round, and it trains nothing.
  p.predict_ms_per_round = replay_oracle_reads_ms(spec, spans);
  p.predict_calls_per_round = static_cast<double>(kWorkers);
  {
    harness::ScenarioConfig oracle = sc;
    oracle.predictor = harness::PredictorKind::kOracle;
    const auto t0 = Clock::now();
    const harness::ColumnPredictor none = harness::make_column_predictor(
        oracle, harness::WorkloadKind::kLogisticRegression, cfg.trace);
    p.predict_train_s = seconds_between(t0, Clock::now());
    if (!none.oracle()) out.fail("serve: oracle speed source built a model");
  }
  std::printf("  traced stream 0: modelled round %.6g ms\n",
              1e3 * sim_round_latency(r0));
  p.core_round_ms = 1e3 * total_seconds(T) / total_rounds(T);
  p.core_self_ms = p.core_round_ms;  // no predictor calls to subtract
  p.harness_ms_per_round = 1e3 * total_seconds(U) / total_rounds(U);
  {
    // The modelled serving latencies pool all streams' requests, as many
    // as the untraced run serves; the extra streams run once, untimed.
    std::vector<harness::ServeResult> extra;
    std::vector<const harness::ServeResult*> all = {&r0};
    for (std::size_t i = 1; i < kStreams; ++i) {
      extra.push_back(
          harness::run_serve(serve_config(derived_seed(opts.seed, i), kRequests)));
      out.failed += check(extra.back(), kRequests, out);
    }
    double completed = 0.0;
    double makespan = 0.0;
    for (const harness::ServeResult& r : extra) all.push_back(&r);
    for (const harness::ServeResult* r : all) {
      completed += static_cast<double>(r->completed);
      makespan += r->makespan;
    }
    const Percentile p99 = percentile(request_latencies(all), 0.99);
    if (!p99.valid) out.fail("serve: too few requests for a modelled p99");
    p.sim_request_p99_s = p99.value;
    p.sim_jobs_per_sec = completed / makespan;
  }
  p.coding_decode_hits = static_cast<double>(r0.decode.hits);
  p.coding_decode_misses = static_cast<double>(r0.decode.misses);
  p.coding_factor_flops_per_round = r0.decode.factor_flops / rounds;
  p.coding_solve_flops_per_round = r0.decode.solve_flops / rounds;
  p.pool_cpu_per_wall = U.cpu_s / U.wall_s;
  p.harness_mean_batch_width = mean_width;
  p.harness_rounds = rounds;
  p.apps_solution_error_max = r0.max_error;
  p.trace_overhead_frac = fastest_pass(T).seconds / fastest_pass(U).seconds - 1.0;
  out.per_layer = per_layer_metrics(p, replay);
  out.fingerprint = r0.fingerprint();
  return out;
}

}  // namespace perfbench
