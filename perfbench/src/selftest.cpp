// Self-tests for the benchmark's own code: argument parsing, percentile
// sample-count rules and the fastest-sample selection, the forwarding
// predictor, the registry override and the quiet-CPU picker.
// main runs them before anything is timed; --self-test runs only them.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "args.h"
#include "probes.h"
#include "quiet_cpus.h"
#include "spans.h"
#include "src/core/engine_factory.h"
#include "src/predict/lstm.h"
#include "src/util/rng.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace s2c2;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++g_failures;
  }
}

bool rejects(std::vector<std::string> args) {
  return !parse_args(args, workload_names()).error.empty();
}

void test_args() {
  expect(rejects({"--seconds", "abc"}), "non-numeric --seconds is rejected");
  expect(rejects({"--seconds", "0"}), "--seconds 0 is rejected");
  expect(rejects({"--seconds", "12x"}), "trailing junk is rejected");
  expect(rejects({"--seed", "-1"}), "negative --seed is rejected");
  expect(rejects({"--seed", "99999999999999999999999"}),
         "out-of-range --seed is rejected");
  expect(rejects({"--trace", "2"}), "--trace 2 is rejected");
  expect(rejects({"--workload", "nope"}), "unknown workload is rejected");
  expect(rejects({"--seed"}), "missing value is rejected");
  expect(rejects({"--bogus", "1"}), "unknown flag is rejected");
  expect(parse_args(std::vector<std::string>{"--help"}, workload_names())
             .options.help,
         "--help is recognised");
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    const ParseResult r = parse_args(
        std::vector<std::string>{"--workload", "jobs-repro-n12", "--seed",
                                 std::to_string(seed), "--seconds", "3",
                                 "--trace", "1"},
        workload_names());
    expect(r.error.empty() && r.options.seed == seed &&
               r.options.seconds == 3 && r.options.trace &&
               r.options.workload == "jobs-repro-n12",
           "default and held-out seeds parse");
  }
  expect(!usage(workload_names()).empty(), "usage text is non-empty");
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  const Percentile p99_short = percentile(v, 0.99);
  expect(p99_short.samples == 999 && !p99_short.valid,
         "p99 of 999 samples is invalid (fewer than 10 beyond)");
  v.push_back(1000);
  const Percentile p99 = percentile(v, 0.99);
  expect(p99.valid && p99.beyond == 10 && p99.value == 990.0,
         "p99 of 1000 samples has 10 beyond");
  const Percentile p50 = percentile({3.0, 1.0, 2.0}, 0.5);
  expect(p50.valid && p50.value == 2.0 && p50.samples == 3,
         "median of 3 samples");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even-sized median");
  expect(!percentile({}, 0.5).valid, "empty sample has no percentile");
  expect(fastest({5.0, 1.0, 4.0, 2.0, 3.0}, 2) == std::vector<double>{1.0, 2.0},
         "fastest keeps the smallest samples, ascending");
  expect(fastest({2.0, 1.0}, 5) == std::vector<double>{1.0, 2.0},
         "fastest of fewer samples than asked keeps them all");
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
}

void test_quiet_cpus() {
  const int before = allowed_cpus();
  {
    QuietCpus quiet;
    expect(static_cast<int>(quiet.cpu_count()) == before,
           "quiet-CPU picker sees every allowed CPU");
    quiet.pin();
    expect(allowed_cpus() == std::min(before, 1),
           "pin() leaves the thread on one CPU");
  }
  expect(allowed_cpus() == before, "the picker restores the allowed CPUs");
}

void test_forwarding_predictor() {
  const predict::Lstm model(1, 4, 0x5eedull);
  predict::LstmPredictor plain(8, model);
  PredictorTally tally;
  ForwardingPredictor wrapped(std::make_unique<predict::LstmPredictor>(8, model),
                              tally);
  util::Rng rng(7);
  bool same = true;
  for (int round = 0; round < 50; ++round) {
    for (std::size_t w = 0; w < 8; ++w) {
      const double a = plain.predict(w);
      const double b = wrapped.predict(w);
      same = same && a == b;
      const double speed = rng.uniform(0.1, 1.5);
      plain.observe(w, speed);
      wrapped.observe(w, speed);
    }
  }
  expect(same, "forwarding predictor returns bit-identical forecasts");
  expect(tally.calls == 50 * 8 * 2, "forwarding predictor counts calls");
  expect(wrapped.name() == plain.name(), "forwarding predictor keeps name");
}

void test_factory_override() {
  const core::StrategyKind kind = core::StrategyKind::kS2C2;
  const core::EngineFactory original = core::engine_factory(kind);
  bool sentinel_called = false;
  bool saw_wrapper = false;
  core::register_engine_factory(kind, [&](core::EngineParams p) {
    sentinel_called = true;
    saw_wrapper = dynamic_cast<ForwardingPredictor*>(p.predictor.get()) != nullptr;
    return std::unique_ptr<core::StrategyEngine>();
  });
  auto build = [kind] {
    core::EngineParams p;
    p.predictor = std::make_unique<predict::LastValuePredictor>(4);
    (void)core::make_engine(kind, std::move(p));
  };
  PredictorTally tally;
  {
    const PredictorFactoryOverride wrap(tally);
    build();
    expect(sentinel_called && saw_wrapper,
           "override wraps the predictor of engines it builds");
  }
  sentinel_called = false;
  saw_wrapper = true;
  build();
  expect(sentinel_called && !saw_wrapper,
         "override restores the previous factory");
  core::register_engine_factory(kind, original);
}

void test_spans() {
  SpanRecorder off(false);
  const auto t = Clock::now();
  expect(off.record("x", t, t) == 0 && off.spans().empty(),
         "a disabled recorder keeps nothing");
  SpanRecorder on(true);
  const std::uint32_t parent = on.reserve();
  const std::uint32_t child = on.record("child", t, t, parent);
  on.record_reserved(parent, "parent", t, t);
  expect(child != parent && on.spans().size() == 2 &&
             on.spans().front().parent == parent,
         "child spans name their parent");
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  test_args();
  test_percentiles();
  test_forwarding_predictor();
  test_factory_override();
  test_spans();
  test_quiet_cpus();
  return g_failures;
}

}  // namespace perfbench
