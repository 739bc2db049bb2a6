// Binary semaphores: P / V.
//
// Specification (SRC Report 20):
//
//   TYPE Semaphore = (available, unavailable) INITIALLY available
//   ATOMIC PROCEDURE P(VAR s)  MODIFIES AT MOST [s]
//     WHEN s = available  ENSURES spost = unavailable
//   ATOMIC PROCEDURE V(VAR s)  MODIFIES AT MOST [s]
//     ENSURES spost = available
//
// "The implementation of semaphores is identical to mutexes: P is the same
// as Acquire and V is the same as Release" — but the types are distinct:
// there is no notion of a thread holding a semaphore and no precondition on
// V, so P and V need not be textually linked. Semaphores are the primitive
// for synchronizing with interrupt routines, which cannot use mutexes (the
// interrupt may have pre-empted a thread inside the critical section).

#ifndef TAOS_SRC_THREADS_SEMAPHORE_H_
#define TAOS_SRC_THREADS_SEMAPHORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/base/intrusive_queue.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Semaphore {
 public:
  Semaphore();
  ~Semaphore();
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Blocks until the semaphore is available, then atomically makes it
  // unavailable.
  void P();

  // Single attempt; returns true if the semaphore was taken.
  bool TryP();

  // P with a deadline: kSatisfied with the semaphore taken, or kTimeout
  // (not taken) once `timeout` has elapsed. A zero or negative timeout
  // degenerates to a single TryP. Not alertable — AlertP is the alertable
  // variant; kAlerted is impossible here. A V that grants this thread
  // always wins a race with the deadline.
  WaitResult PFor(std::chrono::nanoseconds timeout);

  // Makes the semaphore available. Safe to call from any thread — including
  // one acting as an interrupt routine — with no precondition.
  void V();

  spec::ObjId id() const { return id_; }

  // Racy snapshot for tests/debuggers.
  bool AvailableForDebug() const {
    return bit_.load(std::memory_order_relaxed) == 0;
  }

  // --- statistics (relaxed counters) ---
  std::uint64_t fast_ps() const {
    return fast_ps_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_ps() const {
    return slow_ps_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    fast_ps_.store(0, std::memory_order_relaxed);
    slow_ps_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Timer;
  friend void Alert(ThreadHandle t);
  friend void AlertP(Semaphore& s);

  void NubP(ThreadRecord* self);
  void NubV();
  void TracedP(ThreadRecord* self);
  void TracedV(ThreadRecord* self);

  // Deadline-carrying slow paths (PFor); see Mutex::NubAcquireFor, whose
  // structure these mirror. Return false on timeout.
  bool NubPFor(ThreadRecord* self, std::uint64_t deadline_ns);
  bool TracedPFor(ThreadRecord* self, std::uint64_t deadline_ns);

  std::atomic<std::uint32_t> bit_{0};   // 1 iff unavailable
  std::atomic<std::int32_t> queue_len_{0};  // on bit_'s line, as in Mutex
  ObjLock nub_lock_;                    // guards queue_ (the slow paths)
  IntrusiveQueue<ThreadRecord> queue_;
  spec::ObjId id_;

  std::atomic<std::uint64_t> fast_ps_{0};
  std::atomic<std::uint64_t> slow_ps_{0};
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_SEMAPHORE_H_
