// perfbench: the repository benchmark. See perfbench/README.md for the
// workloads, the metrics and how to read a traced run.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "args.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
int run_self_tests();  // selftest.cpp
}

namespace {

using namespace perfbench;

std::string stamp_line(const BuildStamp& b, const RunResult& r) {
  return "hardware_threads=" + std::to_string(b.hardware_threads) +
         " inner_jobs=" + std::to_string(r.inner_jobs) + " compiler=\"" +
         b.compiler + "\" build_type=" + b.build_type +
         " commit=" + b.commit + " src_sha256=" + b.source_sha256;
}

/// The result line: exactly correct, attempted, failed and metrics.
std::string result_json(const RunResult& r, const std::vector<Metric>& ms,
                        bool correct) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

/// Writes the per-layer table of a traced run. Returns false on I/O error.
bool write_layer_table(const std::string& path, const BuildStamp& b,
                       const RunResult& r, std::uint64_t seed) {
  std::ofstream out(path);
  out << "# " << r.workload << " seed=" << seed << " fingerprint="
      << r.fingerprint << "\n# " << stamp_line(b, r) << "\n";
  for (const Metric& m : r.per_layer) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    out << m.name << '\t' << buf << '\t' << m.unit << '\n';
  }
  return static_cast<bool>(out);
}

int run_one(const std::string& name, const Options& opts,
            const BuildStamp& stamp) {
  SpanRecorder spans(opts.trace);
  std::printf("== %s (seed %llu, %llu s, trace %d)\n", name.c_str(),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(opts.seconds), opts.trace ? 1 : 0);
  RunResult r;
  try {
    r = run_workload(name, opts, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", name.c_str(), e.what());
    return 1;
  }
  const std::vector<Metric>& ms = opts.trace ? r.per_layer : r.end_to_end;
  bool correct = r.correct();
  for (const Metric& m : ms) {
    if (!std::isfinite(m.value)) {
      r.fail("metric " + m.name + " is not finite");
      correct = false;
    }
  }
  if (opts.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    const std::string base = opts.out_dir + "/" + name + "-seed" +
                             std::to_string(opts.seed);
    if (ec || !write_layer_table(base + "-layers.tsv", stamp, r, opts.seed) ||
        !spans.write_chrome_trace(base + "-trace.json")) {
      r.fail("could not write the trace files under " + opts.out_dir);
      correct = false;
    } else {
      std::printf("  wrote %s-layers.tsv and %s-trace.json (%zu spans)\n",
                  base.c_str(), base.c_str(), spans.spans().size());
    }
  }
  for (const std::string& e : r.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("  fingerprint %s\n  stamp %s\n", r.fingerprint.c_str(),
              stamp_line(stamp, r).c_str());
  for (const Metric& m : ms) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result_json(r, ms, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const ParseResult parsed = parse_args(args, workload_names());
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                 usage(workload_names()).c_str());
    return 2;
  }
  const Options& opts = parsed.options;
  if (opts.help) {
    std::printf("%s", usage(workload_names()).c_str());
    return 0;
  }
  // The benchmark's own checks run before anything is timed.
  if (run_self_tests() != 0) return 1;
  if (opts.self_test) return 0;

  const BuildStamp stamp = build_stamp();
  if (!stamp.timing_allowed()) {
    std::fprintf(stderr,
                 "error: refusing to time a %s build%s%s; configure with "
                 "-DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 stamp.build_type.c_str(),
                 stamp.sanitized ? " with sanitizers" : "",
                 stamp.asserts ? " with assertions" : "");
    return 2;
  }
  int rc = 0;
  for (const std::string& name : workload_names()) {
    if (opts.workload != "all" && opts.workload != name) continue;
    rc |= run_one(name, opts, stamp);
  }
  return rc;
}
