// rounds-lstm-n1000: warm S2C2 rounds in the paper's configuration — the
// LSTM speed predictor, the §4.3 timeout and recovery — at n = 1000,
// k = 998, width 1, driven in a closed loop on one thread through
// core::make_engine + run_round_block.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>

#include "layers.h"
#include "quiet_cpus.h"
#include "src/core/engine_factory.h"
#include "src/harness/scenario_matrix.h"
#include "src/linalg/matrix.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
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
constexpr std::size_t kInputs = 8;       // distinct input vectors, cycled
constexpr std::size_t kWarmupRounds = 8;
/// Every timed loop runs at least this many rounds: enough for a p99 with
/// ten samples beyond it, and the fixed prefix the deterministic
/// (simulated-time) metrics are computed over.
constexpr std::size_t kMinRounds = 1000;
constexpr std::size_t kFingerprintRounds = 256;
// Set-up repetitions spread over the timed loop; setup_s is their median.
// (The kFleets set-ups before the loop, in a process still growing its
// heap, are not among them.)
constexpr std::size_t kSetupReps = 9;
/// The untraced run times this many fleets (seeds derived from --seed) in
/// turns of kBlockRounds, so one seed's fleet does not set the numbers
/// alone.
constexpr std::size_t kFleets = 4;
/// Rounds run between two picks of the quietest CPU.
constexpr std::size_t kBlockRounds = 32;
/// Host-time metrics come from each fleet's kBestRounds fastest rounds.
constexpr std::size_t kBestRounds = 128;
constexpr double kTolerance = 1e-7;        // decoded vs direct product

constexpr auto kColumn = harness::WorkloadKind::kLogisticRegression;
constexpr auto kTrace = harness::TraceProfile::kVolatileCloud;

/// One engine with everything it borrows. Not movable: the engine keeps
/// pointers into `a` and (through its predictor) `bundle.lstm`, which are
/// declared first so they outlive it.
struct Instance {
  harness::ColumnPredictor bundle;
  linalg::Matrix a;
  std::vector<linalg::Matrix> xs;
  std::vector<linalg::Vector> truths;
  std::unique_ptr<core::StrategyEngine> engine;
  double setup_s = 0.0;
  double train_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_err = 0.0;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Verifies a width-1 round's product against the direct product.
  void check(const core::RoundResult& r, std::size_t input) {
    ++attempted;
    const bool ok = r.y.has_value() && r.y->size() == truths[input].size();
    const double err =
        ok ? linalg::max_abs_diff(*r.y, truths[input])
           : std::numeric_limits<double>::infinity();
    max_err = std::max(max_err, err);
    if (!(err <= kTolerance)) ++failed;
  }
};

std::unique_ptr<Instance> make_instance(std::uint64_t seed,
                                        PredictorTally* tally,
                                        SpanRecorder& spans) {
  auto in = std::make_unique<Instance>();
  const auto t0 = Clock::now();
  const std::uint32_t setup_id = spans.reserve();

  harness::ScenarioConfig sc;
  sc.workers = kWorkers;
  sc.k = kK;
  sc.chunks_per_partition = kChunks;
  sc.seed = seed;
  sc.predictor = harness::PredictorKind::kLstm;
  sc.functional = true;

  auto t = Clock::now();
  in->bundle = harness::make_column_predictor(sc, kColumn, kTrace);
  in->train_s = seconds_between(t, Clock::now());
  spans.record("setup.predict.train", t, Clock::now(), setup_id);

  t = Clock::now();
  core::ClusterSpec spec = harness::make_cluster(
      kTrace, sc, harness::trace_salt(seed, kColumn, kTrace));
  spans.record("setup.cluster", t, Clock::now(), setup_id);

  t = Clock::now();
  util::Rng rng(util::mix64(seed ^ 0x0b5e7a70ull));
  in->a = linalg::Matrix::random_uniform(kRowsPerPartition * kK, kCols, rng);
  for (std::size_t i = 0; i < kInputs; ++i) {
    in->xs.push_back(linalg::Matrix::random_normal(kCols, 1, rng));
    in->truths.push_back(in->a.matvec(in->xs.back().data()));
  }
  spans.record("setup.operator", t, Clock::now(), setup_id);

  t = Clock::now();
  core::EngineParams p;
  p.cluster = std::move(spec);
  p.dense = &in->a;
  p.k = kK;
  p.chunks_per_partition = kChunks;
  p.predictor = std::move(in->bundle.predictor);
  if (tally != nullptr) {
    p.predictor =
        std::make_unique<ForwardingPredictor>(std::move(p.predictor), *tally);
  }
  in->engine = core::make_engine(core::StrategyKind::kS2C2, std::move(p));
  spans.record("setup.encode", t, Clock::now(), setup_id);

  t = Clock::now();
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    core::RoundResult res = in->engine->run_round_block(in->xs[r % kInputs], 1);
    in->check(res, r % kInputs);
    in->engine->recycle(std::move(res));
  }
  spans.record("setup.warmup", t, Clock::now(), setup_id);

  in->setup_s = seconds_between(t0, Clock::now());
  spans.record_reserved(setup_id, "setup", t0, Clock::now());
  return in;
}

/// Everything one timed loop measures. The `sim`/fingerprint fields are
/// computed over the first kMinRounds (kFingerprintRounds) rounds only,
/// so they are a pure function of the seed.
struct Loop {
  std::vector<double> round_ms;
  double round_s = 0.0;  // sum of round-call host time
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double predict_ms = 0.0;  // traced: host ms inside the predictor
  std::uint64_t predict_calls = 0;
  std::uint64_t fingerprint = util::kFnvOffset;
  std::vector<double> sim_latency;
  std::size_t timeouts = 0;
  std::size_t reassigned = 0;
  double wasted_fraction = 0.0;
  double mispredict_rate = 0.0;
  coding::DecodeContextStats decode;  // delta over the first kMinRounds
  std::vector<std::vector<double>> speed_sets;  // sampled forecasts

  [[nodiscard]] bool same_outputs(const Loop& o) const {
    return fingerprint == o.fingerprint && sim_latency == o.sim_latency &&
           timeouts == o.timeouts && reassigned == o.reassigned &&
           wasted_fraction == o.wasted_fraction &&
           mispredict_rate == o.mispredict_rate &&
           decode.hits == o.decode.hits && decode.misses == o.decode.misses;
  }
};

double wasted_fraction(const sim::Accounting& acc) {
  const double useful = acc.total_useful();
  const double wasted = acc.total_wasted();
  return useful + wasted > 0.0 ? wasted / (useful + wasted) : 0.0;
}

/// Runs one instance's rounds one at a time, accumulating its Loop.
class Runner {
 public:
  Runner(Instance& in, PredictorTally* tally, SpanRecorder& spans)
      : in_(in), tally_(tally), spans_(spans), d0_(in.engine->decode_stats()) {
    loop.round_ms.reserve(8192);
  }

  void step() {
    core::StrategyEngine& engine = *in_.engine;
    const std::size_t r = loop.round_ms.size();
    const std::size_t input = r % kInputs;
    const std::uint32_t round_id = spans_.reserve();
    const PredictorTally before = tally_ != nullptr ? *tally_ : PredictorTally{};
    const auto t0 = Clock::now();
    core::RoundResult res = engine.run_round_block(in_.xs[input], 1);
    const auto t1 = Clock::now();
    const double s = seconds_between(t0, t1);
    loop.round_s += s;
    loop.round_ms.push_back(1e3 * s);
    if (tally_ != nullptr) {
      // One child span per round for the predictor, as long as the
      // predictor's summed call time, starting where the round starts.
      const std::int64_t ns = tally_->ns - before.ns;
      loop.predict_ms += 1e-6 * static_cast<double>(ns);
      loop.predict_calls += tally_->calls - before.calls;
      spans_.record("predict", t0, t0 + std::chrono::nanoseconds(ns), round_id,
                    static_cast<double>(tally_->calls - before.calls));
    }
    spans_.record_reserved(round_id, "round", t0, t1);

    in_.check(res, input);
    if (r < kFingerprintRounds) {
      loop.fingerprint = util::fnv1a(loop.fingerprint, res.stats.latency());
      for (const double v : *res.y) {
        loop.fingerprint = util::fnv1a(loop.fingerprint, v);
      }
    }
    if (r < kMinRounds) {
      loop.sim_latency.push_back(res.stats.latency());
      loop.timeouts += res.stats.timeout_fired ? 1 : 0;
      loop.reassigned += res.stats.reassigned_chunks;
      if (spans_.enabled() && r % 8 == 0) {
        loop.speed_sets.push_back(res.predicted_speeds);
      }
      if (r + 1 == kMinRounds) {
        const coding::DecodeContextStats d1 = engine.decode_stats();
        loop.decode.hits = d1.hits - d0_.hits;
        loop.decode.misses = d1.misses - d0_.misses;
        loop.decode.factor_flops = d1.factor_flops - d0_.factor_flops;
        loop.decode.solve_flops = d1.solve_flops - d0_.solve_flops;
        loop.wasted_fraction = wasted_fraction(engine.accounting());
        loop.mispredict_rate = engine.misprediction_rate();
      }
    }
    engine.recycle(std::move(res));
  }

  [[nodiscard]] bool has_min_rounds() const {
    return loop.round_ms.size() >= kMinRounds;
  }

  Loop loop;

 private:
  Instance& in_;
  PredictorTally* tally_;
  SpanRecorder& spans_;
  coding::DecodeContextStats d0_;
};

/// Runs the runners' rounds in turns of kBlockRounds until `seconds` have
/// passed and each has run kMinRounds, polling `setups` (if any) and
/// moving to the quietest CPU between blocks; stamps wall and CPU time.
void run_blocks(std::vector<Runner>& runners, double seconds, QuietCpus& quiet,
                SpreadSetups* setups = nullptr) {
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t b = 0;; ++b) {
    const double elapsed = seconds_between(start, Clock::now());
    if (setups != nullptr) setups->poll(elapsed);
    const bool enough = std::all_of(runners.begin(), runners.end(),
                                    [](const Runner& x) { return x.has_min_rounds(); });
    if (enough && elapsed >= seconds) break;
    Runner& runner = runners[b % runners.size()];
    quiet.pin();
    for (std::size_t i = 0; i < kBlockRounds; ++i) runner.step();
  }
  const double wall = seconds_between(start, Clock::now());
  const double cpu = process_cpu_seconds() - cpu0;
  for (Runner& x : runners) {
    x.loop.wall_s = wall;
    x.loop.cpu_s = cpu;
  }
}

Loop run_loop(Instance& in, double seconds, PredictorTally* tally,
              SpanRecorder& spans, QuietCpus& quiet) {
  std::vector<Runner> one;
  one.emplace_back(in, tally, spans);
  run_blocks(one, seconds, quiet);
  return std::move(one.front().loop);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Host ms of the loop's kBestRounds fastest rounds, fastest first: the
/// rounds that ran while their CPU was least contended (README: "Reading
/// host time on a shared machine").
std::vector<double> best_rounds(const Loop& L) {
  return fastest(L.round_ms, kBestRounds);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void report_loop(const char* label, const Loop& L) {
  const Percentile p50 = percentile(L.round_ms, 0.50);
  const Percentile p99 = percentile(L.round_ms, 0.99);
  std::printf("  %s: fingerprint %s, modelled round %.6g ms; %zu rounds, "
              "all-round ms p50 %.4f (n=%zu) p99 %.4f "
              "(n=%zu, %zu beyond%s), mean %.4f, fastest %zu rounds "
              "%.4f ms/round, timeouts %zu/%zu\n",
              label, util::hex64(L.fingerprint).c_str(),
              1e3 * mean(L.sim_latency), L.round_ms.size(), p50.value,
              p50.samples, p99.value,
              p99.samples, p99.beyond, p99.valid ? "" : ", too few: invalid",
              1e3 * L.round_s / static_cast<double>(L.round_ms.size()),
              kBestRounds, sum(best_rounds(L)) / kBestRounds,
              L.timeouts, L.sim_latency.size());
}

}  // namespace

RunResult run_rounds(const Options& opts, SpanRecorder& spans) {
  RunResult out;
  out.workload = "rounds-lstm-n1000";
  out.inner_jobs = 1;
  const auto seconds = static_cast<double>(opts.seconds);
  SpanRecorder off(false);

  if (!opts.trace) {
    // Set up several times and report the median. Every repetition trains
    // its own predictor (the harness memoizes training per seed, so each
    // uses its own derived seed); the first kFleets are the timed fleets.
    std::vector<double> setups;
    QuietCpus quiet;
    auto set_up = [&](std::size_t rep) {
      quiet.pin();
      return make_instance(derived_seed(opts.seed, rep), nullptr, off);
    };
    std::vector<std::unique_ptr<Instance>> fleets;
    std::vector<Runner> runners;
    runners.reserve(kFleets);
    for (std::size_t f = 0; f < kFleets; ++f) {
      fleets.push_back(set_up(f));
      runners.emplace_back(*fleets.back(), nullptr, off);
    }
    std::size_t next_rep = kFleets;
    SpreadSetups spread(kSetupReps, seconds,
                        [&] { setups.push_back(set_up(next_rep++)->setup_s); });
    run_blocks(runners, seconds, quiet, &spread);
    spread.finish();

    // Host-time metrics come from each fleet's least contended rounds.
    std::vector<double> best_ms;
    double sim_ms = 0.0;
    for (const Runner& x : runners) {
      const Loop& L = x.loop;
      report_loop("untraced fleet", L);
      const std::vector<double> best = best_rounds(L);
      best_ms.insert(best_ms.end(), best.begin(), best.end());
      sim_ms += 1e3 * mean(L.sim_latency) / kFleets;
    }
    const double best_s = 1e-3 * sum(best_ms);

    // Repeat check: a second engine from the first fleet's seed must
    // reproduce its fingerprinted prefix bit for bit.
    auto again = make_instance(opts.seed, nullptr, off);
    std::uint64_t fp = util::kFnvOffset;
    for (std::size_t r = 0; r < kFingerprintRounds; ++r) {
      core::RoundResult res = again->engine->run_round_block(again->xs[r % kInputs], 1);
      fp = util::fnv1a(fp, res.stats.latency());
      for (const double v : *res.y) fp = util::fnv1a(fp, v);
      again->engine->recycle(std::move(res));
    }
    if (fp != runners.front().loop.fingerprint) {
      out.fail("rounds: repeat run changed the fingerprint");
    }
    // The first fleet is the one a traced run replays.
    out.fingerprint = util::hex64(runners.front().loop.fingerprint);
    double max_err = again->max_err;
    again.reset();
    for (const auto& in : fleets) {
      out.attempted += in->attempted;
      out.failed += in->failed;
      max_err = std::max(max_err, in->max_err);
    }

    EndToEnd e;
    e.rounds_per_sec = static_cast<double>(best_ms.size()) / best_s;
    e.round_ms_p50 = percentile(best_ms, 0.5).value;
    e.requests_per_sec = e.rounds_per_sec;  // one product per width-1 round
    e.suite_wall_s = best_s;
    e.setup_s = median(setups);
    e.peak_rss_mb = peak_rss_mb();
    e.sim_round_latency_ms = sim_ms;
    out.end_to_end = end_to_end_metrics(e);
    std::printf("  max |decoded - direct| %.3g over %llu products\n", max_err,
                static_cast<unsigned long long>(out.attempted));
    return out;
  }

  // Traced run: a traced engine (fresh training, every span) and an
  // untraced twin from the same seed, each timed for half the budget.
  PredictorTally tally;
  QuietCpus quiet;
  quiet.pin();
  auto traced = make_instance(opts.seed, &tally, spans);
  auto plain = make_instance(opts.seed, nullptr, off);
  const Loop U = run_loop(*plain, seconds / 2, nullptr, off, quiet);
  const Loop T = run_loop(*traced, seconds / 2, &tally, spans, quiet);
  report_loop("untraced", U);
  report_loop("traced", T);
  if (!T.same_outputs(U)) {
    out.fail("rounds: traced and untraced runs differ in their outputs");
  }

  LayerShape shape;
  shape.n = kWorkers;
  shape.k = kK;
  shape.chunks = kChunks;
  shape.rows_per_partition = kRowsPerPartition;
  shape.op_rows = kRowsPerPartition * kK;
  shape.cols = kCols;
  shape.width = 1;
  shape.pool_width = pool_replay_width();
  const LayerReplay replay = replay_layers(shape, T.speed_sets, opts.seed, spans);

  const double rounds = static_cast<double>(T.round_ms.size());
  PerLayer p;
  p.predict_ms_per_round = T.predict_ms / rounds;
  p.predict_calls_per_round = static_cast<double>(T.predict_calls) / rounds;
  p.predict_train_s = traced->train_s;
  p.core_round_ms = 1e3 * T.round_s / rounds;
  p.core_self_ms = p.core_round_ms - p.predict_ms_per_round;
  p.harness_ms_per_round = 1e3 * U.wall_s / static_cast<double>(U.round_ms.size());
  const double sim_rounds = static_cast<double>(T.sim_latency.size());
  p.sched_reassigned_chunks_per_round = static_cast<double>(T.reassigned) / sim_rounds;
  p.sim_timeout_rate = static_cast<double>(T.timeouts) / sim_rounds;
  p.sim_mispredict_rate = T.mispredict_rate;
  p.sim_wasted_fraction = T.wasted_fraction;
  p.sim_request_p99_s = percentile(T.sim_latency, 0.99).value;
  p.sim_jobs_per_sec = 1.0 / mean(T.sim_latency);  // closed-loop rounds
  p.coding_decode_hits = static_cast<double>(T.decode.hits);
  p.coding_decode_misses = static_cast<double>(T.decode.misses);
  p.coding_factor_flops_per_round = T.decode.factor_flops / sim_rounds;
  p.coding_solve_flops_per_round = T.decode.solve_flops / sim_rounds;
  p.pool_cpu_per_wall = U.cpu_s / U.wall_s;
  p.harness_mean_batch_width = 1.0;
  p.harness_rounds = rounds;
  p.apps_solution_error_max = std::max(traced->max_err, plain->max_err);
  p.trace_overhead_frac = sum(best_rounds(T)) / sum(best_rounds(U)) - 1.0;
  out.per_layer = per_layer_metrics(p, replay);
  out.attempted = traced->attempted + plain->attempted;
  out.failed = traced->failed + plain->failed;
  out.fingerprint = util::hex64(T.fingerprint);
  return out;
}

}  // namespace perfbench
