#include "args.h"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace perfbench {

bool parse_uint(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t& out) {
  if (text.empty() || text.front() == '-' || text.front() == '+') return false;
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return false;
  out = v;
  return true;
}

std::string usage(std::span<const std::string> workloads) {
  std::ostringstream s;
  s << "usage: perfbench [--workload NAME|all] [--seed N] [--seconds N]\n"
       "                 [--trace 0|1] [--out-dir DIR] [--self-test]\n\n"
       "  --workload  one of:";
  for (const std::string& w : workloads) s << ' ' << w;
  s << ", or all (default)\n"
       "  --seed      input seed (default "
    << kDefaultSeed << "; held-out seed " << kHeldOutSeed
    << ")\n"
       "  --seconds   host seconds each run measures, 1..600 (default 30)\n"
       "  --trace     0: end-to-end metrics (default); 1: traced run with\n"
       "              per-layer metrics, a layer table and a Chrome trace\n"
       "  --out-dir   where traced runs write their files\n"
       "              (default .bench_build/perfbench-out)\n"
       "  --self-test run the benchmark's own checks and exit\n\n"
       "The last line of standard output is one JSON object with the keys\n"
       "correct, attempted, failed and metrics. The exit code is nonzero\n"
       "when any output check fails.\n";
  return s.str();
}

ParseResult parse_args(std::span<const std::string> args,
                       std::span<const std::string> workloads) {
  ParseResult r;
  Options& o = r.options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") {
      o.help = true;
      continue;
    }
    if (flag == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= args.size()) {
      r.error = flag.rfind("--", 0) == 0 ? "missing value for " + flag
                                          : "unexpected argument '" + flag + "'";
      return r;
    }
    const std::string& value = args[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      if (value != "all" &&
          std::find(workloads.begin(), workloads.end(), value) ==
              workloads.end()) {
        r.error = "unknown workload '" + value + "'";
        return r;
      }
      o.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, 0, UINT64_MAX, v)) {
        r.error = "--seed needs an unsigned integer, got '" + value + "'";
        return r;
      }
      o.seed = v;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 1, 600, v)) {
        r.error = "--seconds needs an integer in 1..600, got '" + value + "'";
        return r;
      }
      o.seconds = v;
    } else if (flag == "--trace") {
      if (!parse_uint(value, 0, 1, v)) {
        r.error = "--trace needs 0 or 1, got '" + value + "'";
        return r;
      }
      o.trace = v == 1;
    } else if (flag == "--out-dir") {
      if (value.empty()) {
        r.error = "--out-dir needs a directory";
        return r;
      }
      o.out_dir = value;
    } else {
      r.error = "unknown flag '" + flag + "'";
      return r;
    }
  }
  return r;
}

}  // namespace perfbench
