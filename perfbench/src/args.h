// Command-line options of the perfbench binary. Every value goes through
// parse_args, which answers malformed input and --help with usage text
// instead of throwing out of a numeric conversion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// The default seed, and a held-out seed kept out of tuning so a claimed
/// gain can be re-checked on inputs it was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 20191117;

struct Options {
  std::string workload = "all";  // a workload name, or "all"
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 30;    // host seconds one run measures
  bool trace = false;            // per-layer traced run instead of end-to-end
  std::string out_dir = ".bench_build/perfbench-out";
  bool self_test = false;        // run the benchmark's own self-tests only
  bool help = false;
};

struct ParseResult {
  Options options;
  std::string error;  // empty on success
};

/// Parses argv[1..]. Never throws on bad input: the error is returned.
[[nodiscard]] ParseResult parse_args(std::span<const std::string> args,
                                     std::span<const std::string> workloads);

[[nodiscard]] std::string usage(std::span<const std::string> workloads);

/// Strict unsigned parse of the whole string, within [lo, hi].
[[nodiscard]] bool parse_uint(const std::string& text, std::uint64_t lo,
                              std::uint64_t hi, std::uint64_t& out);

}  // namespace perfbench
