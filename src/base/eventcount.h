// Eventcount, after Reed & Kanodia (SOSP 1977), as used by the Threads
// implementation of condition variables.
//
// SRC Report 20: "An eventcount is an atomically-readable, monotonically-
// increasing integer variable." Wait reads the eventcount before releasing
// the mutex; Block compares it under the Nub spin-lock; Signal/Broadcast
// increment it. A thread whose read is stale returns from Block immediately
// instead of sleeping — this closes the wakeup-waiting race.

#ifndef TAOS_SRC_BASE_EVENTCOUNT_H_
#define TAOS_SRC_BASE_EVENTCOUNT_H_

#include <atomic>
#include <cstdint>

#include "src/obs/metrics.h"

namespace taos {

class EventCount {
 public:
  using Value = std::uint64_t;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  // Atomically readable. Block's re-read and Signal's Advance both run
  // under the condition's spin-lock, so acquire/release would suffice;
  // seq_cst is kept as the conservative order (on x86 the load is a plain
  // mov either way, and Advance is a locked RMW regardless).
  Value Read() const { return count_.load(std::memory_order_seq_cst); }

  // Monotonically increasing. Returns the value after the increment.
  Value Advance() {
    obs::Inc(obs::Counter::kEventCountAdvances);
    return count_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

 private:
  std::atomic<Value> count_{0};
};

}  // namespace taos

#endif  // TAOS_SRC_BASE_EVENTCOUNT_H_
