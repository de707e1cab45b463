#include "quiet_cpus.h"

#include <unistd.h>

#include <numeric>
#include <utility>

#include "spans.h"

namespace perfbench {

namespace {

constexpr std::size_t kLine = 64;
constexpr std::size_t kSlotsPerLine = kLine / sizeof(std::uint32_t);

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

QuietCpus::QuietCpus() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  // A random cyclic permutation of the ring's lines, so the hardware
  // prefetchers cannot hide the latency of each hop.
  // Three quarters of the L2 cache: it fits while the core is ours and
  // spills once a hyperthread sibling's working set competes for the L2.
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t ring_bytes =
      l2 > 0 ? static_cast<std::size_t>(l2) / 4 * 3 : std::size_t{1} << 20;
  const std::size_t lines = ring_bytes / kLine;
  std::vector<std::uint32_t> order(lines);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = lines - 1; i > 0; --i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i], order[(h >> 33) % (i + 1)]);
  }
  ring_.assign(lines * kSlotsPerLine, 0);
  for (std::size_t i = 0; i < lines; ++i) {
    ring_[order[i] * kSlotsPerLine] =
        static_cast<std::uint32_t>(order[(i + 1) % lines] * kSlotsPerLine);
  }
}

QuietCpus::~QuietCpus() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
}

double QuietCpus::probe() {
  std::uint32_t p = pos_;
  const std::size_t hops = ring_.size() / kSlotsPerLine;  // one lap
  // The first lap only brings the ring into this CPU's caches.
  for (std::size_t i = 0; i < hops; ++i) p = ring_[p];
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < hops; ++i) p = ring_[p];
  const double ns =
      1e9 * seconds_between(t0, Clock::now()) / static_cast<double>(hops);
  pos_ = p;
  return ns;
}

void QuietCpus::pin() {
  if (cpus_.size() <= 1) return;
  double best_ns = 0.0;
  int best = cpus_.front();
  for (const int c : cpus_) {
    pin_to(c);
    const double ns = probe();
    if (c == cpus_.front() || ns < best_ns) {
      best_ns = ns;
      best = c;
    }
  }
  pin_to(best);
}

}  // namespace perfbench
