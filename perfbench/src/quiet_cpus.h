// Picks the least contended CPU to time on. On a shared host the speed
// of cache-bound code on one vCPU swings by up to 4x within a second as
// other tenants' threads come and go on its hyperthread sibling, while
// another vCPU of the same machine runs at full speed. A short pointer
// chase through an L2-sized ring on each allowed CPU tells which are quiet
// at the moment; the benchmark pins its timing thread there between
// samples, never during one.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class QuietCpus {
 public:
  /// Reads the calling thread's allowed CPUs and builds the probe ring.
  QuietCpus();
  /// Restores the allowed CPUs the constructor read.
  ~QuietCpus();
  QuietCpus(const QuietCpus&) = delete;
  QuietCpus& operator=(const QuietCpus&) = delete;

  /// Pins the calling thread to the allowed CPU where the probe ran
  /// fastest just now.
  void pin();

  [[nodiscard]] std::size_t cpu_count() const { return cpus_.size(); }

 private:
  /// Nanoseconds per hop of one warm lap of the ring on the current CPU.
  double probe();

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::vector<std::uint32_t> ring_;  // next-index links, one per cache line
  std::uint32_t pos_ = 0;
};

}  // namespace perfbench
