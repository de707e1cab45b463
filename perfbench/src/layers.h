// Per-layer replays: each times one public layer function at a workload's
// shapes, from outside the program, so the per-layer table carries
// numbers an optimisation of that layer should move. Every replay records
// a span in the traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "src/core/strategy_config.h"

namespace perfbench {

/// The shapes a workload's rounds run at.
struct LayerShape {
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t chunks = 0;              // chunks per partition
  std::size_t rows_per_partition = 0;  // encoded rows per worker
  std::size_t op_rows = 0;             // whole operator
  std::size_t cols = 0;
  std::size_t width = 1;               // columns per round
  std::size_t pool_width = 1;          // inner pool width for the fan-out
};

struct LayerReplay {
  double alloc_us = 0.0;           // sched::proportional_allocation_into
  double chunks_per_round = 0.0;   // chunks that allocation hands out
  double decode_us = 0.0;          // warm ChunkedDecoder::decode_into
  double chunk_product_us = 0.0;   // one kernel call at the chunk shape
  double chunk_gflops = 0.0;
  double operator_product_ms = 0.0;  // one whole-operator product
  double fanout_us = 0.0;          // util::ThreadPool::parallel_for
};

/// Runs every replay. `speed_sets` are the per-round speed vectors the
/// allocation replay is fed (at least one, each of size shape.n).
[[nodiscard]] LayerReplay replay_layers(
    const LayerShape& shape,
    const std::vector<std::vector<double>>& speed_sets, std::uint64_t seed,
    SpanRecorder& spans);

/// Host ms per round of an oracle speed source: shape.n SpeedTrace reads,
/// the speed lookups an engine with oracle_speeds makes at round start.
[[nodiscard]] double replay_oracle_reads_ms(const s2c2::core::ClusterSpec& spec,
                                            SpanRecorder& spans);

/// Appends the LayerReplay fields as per-layer metrics.
void append_replay_metrics(const LayerReplay& r, std::vector<Metric>& out);

}  // namespace perfbench
