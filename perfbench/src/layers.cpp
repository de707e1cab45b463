#include "layers.h"

#include <algorithm>

#include "src/coding/chunked_decoder.h"
#include "src/coding/generator_matrix.h"
#include "src/linalg/kernels.h"
#include "src/linalg/matrix.h"
#include "src/sched/allocation.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "stats.h"

namespace perfbench {

using namespace s2c2;

namespace {

constexpr int kBatches = 15;

/// Median over kBatches of the per-call host seconds of `calls` calls.
template <typename Fn>
double median_call_seconds(std::size_t calls, Fn&& fn) {
  std::vector<double> per_call;
  per_call.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    per_call.push_back(seconds_between(t0, Clock::now()) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

double replay_alloc(const LayerShape& s,
                    const std::vector<std::vector<double>>& speed_sets,
                    double& chunks_per_round) {
  // The engine clamps a forecast that writes off too many workers; the
  // replay feeds the same clamped vectors.
  std::vector<std::vector<double>> sets = speed_sets;
  for (auto& v : sets) {
    const auto positive = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [](double x) { return x > 0.0; }));
    if (positive < s.k) {
      for (double& x : v) x = std::max(x, 0.05);
    }
  }
  sched::AllocationScratch scratch;
  sched::Allocation out;
  double total = 0.0;
  for (const auto& v : sets) {
    sched::proportional_allocation_into(v, s.k, s.chunks, scratch, out);
    total += static_cast<double>(out.total_chunks());
  }
  chunks_per_round = total / static_cast<double>(sets.size());
  return median_call_seconds(sets.size(), [&](std::size_t i) {
    sched::proportional_allocation_into(sets[i], s.k, s.chunks, scratch, out);
  });
}

double replay_decode(const LayerShape& s, util::Rng& rng) {
  const coding::GeneratorMatrix g(s.n, s.k);
  coding::ChunkedDecoder dec(g, s.rows_per_partition, s.chunks, s.width);
  const std::size_t values = dec.rows_per_chunk() * s.width;
  // Responders skip the first n - k systematic workers, so every chunk
  // decodes through parity rows (a real solve, not an identity copy).
  std::vector<double> payload(s.n * values);
  for (double& v : payload) v = rng.normal();
  linalg::Matrix out;
  std::vector<double> seconds;
  for (int rep = 0; rep < kBatches + 1; ++rep) {
    dec.reset();
    for (std::size_t chunk = 0; chunk < s.chunks; ++chunk) {
      for (std::size_t w = s.n - s.k; w < s.n; ++w) {
        dec.add_chunk_result(
            w, chunk,
            std::span<const double>(payload.data() + w * values, values));
      }
    }
    const auto t0 = Clock::now();
    dec.decode_into(out);
    // The first decode factorizes; the rest hit the cache like a warm
    // round does.
    if (rep > 0) seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return median(seconds);
}

}  // namespace

LayerReplay replay_layers(const LayerShape& s,
                          const std::vector<std::vector<double>>& speed_sets,
                          std::uint64_t seed, SpanRecorder& spans) {
  LayerReplay r;
  util::Rng rng(seed ^ 0x1a7e25ull);
  {
    ScopedSpan span(spans, "replay.sched.alloc");
    r.alloc_us = 1e6 * replay_alloc(s, speed_sets, r.chunks_per_round);
  }
  {
    ScopedSpan span(spans, "replay.coding.decode");
    r.decode_us = 1e6 * replay_decode(s, rng);
  }
  {
    ScopedSpan span(spans, "replay.linalg.chunk_product");
    const std::size_t rpc = s.rows_per_partition / s.chunks;
    const linalg::Matrix a = linalg::Matrix::random_uniform(rpc, s.cols, rng);
    const linalg::Matrix x = linalg::Matrix::random_normal(s.cols, s.width, rng);
    std::vector<double> y(rpc * s.width);
    const double sec = median_call_seconds(4096, [&](std::size_t) {
      linalg::kernels::dense_matmat(a.data().data(), rpc, s.cols,
                                    x.data().data(), s.width, y.data());
    });
    r.chunk_product_us = 1e6 * sec;
    r.chunk_gflops = 2.0 * static_cast<double>(rpc * s.cols * s.width) /
                     sec * 1e-9;
  }
  {
    ScopedSpan span(spans, "replay.linalg.operator_product");
    const linalg::Matrix a =
        linalg::Matrix::random_uniform(s.op_rows, s.cols, rng);
    const linalg::Matrix x = linalg::Matrix::random_normal(s.cols, s.width, rng);
    std::vector<double> y(s.op_rows * s.width);
    r.operator_product_ms = 1e3 * median_call_seconds(1, [&](std::size_t) {
      linalg::kernels::dense_matmat(a.data().data(), s.op_rows, s.cols,
                                    x.data().data(), s.width, y.data());
    });
  }
  {
    ScopedSpan span(spans, "replay.pool.fanout");
    util::ThreadPool pool(s.pool_width > 0 ? s.pool_width - 1 : 0);
    r.fanout_us = 1e6 * median_call_seconds(256, [&](std::size_t) {
      pool.parallel_for(s.pool_width, [](std::size_t) {});
    });
  }
  return r;
}

double replay_oracle_reads_ms(const core::ClusterSpec& spec,
                              SpanRecorder& spans) {
  ScopedSpan span(spans, "replay.predict.oracle_reads");
  double sink = 0.0;
  const double sec = median_call_seconds(64, [&](std::size_t round) {
    const double t = 1e-4 * static_cast<double>(round);
    for (const sim::SpeedTrace& trace : spec.traces) sink += trace.speed_at(t);
  });
  // Keeps the reads observable so they are not optimized away.
  if (sink < 0.0) return -1.0;
  return 1e3 * sec;
}

void append_replay_metrics(const LayerReplay& r, std::vector<Metric>& out) {
  out.push_back({"sched.alloc_us", r.alloc_us, "us"});
  out.push_back({"linalg.chunk_products_per_round", r.chunks_per_round,
                 "count"});
  out.push_back({"coding.decode_us", r.decode_us, "us"});
  out.push_back({"linalg.chunk_product_us", r.chunk_product_us, "us"});
  out.push_back({"linalg.chunk_gflops", r.chunk_gflops, "GFLOP/s"});
  out.push_back({"linalg.operator_product_ms", r.operator_product_ms, "ms"});
  out.push_back({"pool.fanout_us", r.fanout_us, "us"});
}

}  // namespace perfbench
