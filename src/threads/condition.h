// Condition variables: Wait / Signal / Broadcast.
//
// Specification (SRC Report 20):
//
//   TYPE Condition = SET OF Thread INITIALLY {}
//   PROCEDURE Wait(VAR m: Mutex; VAR c: Condition) =
//     COMPOSITION OF Enqueue; Resume END
//     REQUIRES m = SELF  MODIFIES AT MOST [m, c]
//     ATOMIC ACTION Enqueue  ENSURES (cpost = insert(c, SELF)) & (mpost = NIL)
//     ATOMIC ACTION Resume   WHEN (m = NIL) & (SELF NOT-IN c)
//                            ENSURES mpost = SELF & UNCHANGED [c]
//   ATOMIC PROCEDURE Signal(VAR c)    ENSURES (cpost = {}) | (cpost PROPER-SUBSET c)
//   ATOMIC PROCEDURE Broadcast(VAR c) ENSURES cpost = {}
//
// Return from Wait is a hint: the caller re-evaluates its predicate and may
// Wait again (Mesa semantics, not Hoare's).
//
// Implementation (the paper's): a condition variable is a pair
// (Eventcount, Queue). Wait reads the eventcount, releases the mutex, then
// calls the Nub subroutine Block(c, i): under the spin-lock, if the
// eventcount still equals i the thread is queued and de-scheduled, otherwise
// a Signal/Broadcast intervened and Block returns at once. Signal/Broadcast
// increment the eventcount and unblock one/all queued threads. The
// eventcount closes the wakeup-waiting race and is why Signal may unblock
// more than one thread (every thread in the read-eventcount → Block window
// absorbs the same increment).
//
// Departure from the paper (documented in DESIGN.md): waiters_ counts the
// threads between their eventcount read and their wakeup, incremented before
// the mutex is released, so the user-code "no threads to unblock" fast path
// of Signal/Broadcast cannot miss a waiter that is still on its way into
// Block.

#ifndef TAOS_SRC_THREADS_CONDITION_H_
#define TAOS_SRC_THREADS_CONDITION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/base/eventcount.h"
#include "src/base/intrusive_queue.h"
#include "src/threads/mutex.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Condition {
 public:
  Condition();
  ~Condition();
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  // Atomically releases m (ending the critical section) and suspends the
  // calling thread; returns inside a new critical section on m. The caller
  // must hold m and must re-evaluate its predicate on return.
  void Wait(Mutex& m);

  // Wait with a deadline: kSatisfied after a Signal/Broadcast wakeup,
  // kTimeout once `timeout` elapsed first. Either way the mutex is held
  // again on return (on the timeout path the caller re-acquires before
  // returning, like the spec's TimeoutResume action), and the caller must
  // re-evaluate its predicate — a kTimeout may race a just-missed Signal,
  // and Mesa semantics already force the re-check. A nonpositive timeout
  // returns kTimeout immediately without releasing m. A signal that
  // dequeues this thread always wins a race with the deadline.
  WaitResult WaitFor(Mutex& m, std::chrono::nanoseconds timeout);

  // Unblocks at least one waiting thread, if any are waiting. May unblock
  // more than one.
  void Signal();

  // Unblocks all waiting threads.
  void Broadcast();

  spec::ObjId id() const { return id_; }

  // Benchmark-only entry point (E2 ablation): the Nub path of Signal —
  // spin-lock, eventcount advance, queue inspection — taken
  // unconditionally, as every Signal would without the user-code
  // no-waiters gate. Semantically a valid Signal.
  void SignalNubPathForBench() { NubSignal(); }

  // --- statistics (relaxed counters) ---
  std::uint64_t fast_signals() const {
    return fast_signals_.load(std::memory_order_relaxed);
  }
  std::uint64_t nub_signals() const {
    return nub_signals_.load(std::memory_order_relaxed);
  }
  // Waits that returned from Block without sleeping because a Signal or
  // Broadcast intervened in the window (the "extra" threads a Signal
  // unblocks).
  std::uint64_t absorbed_wakeups() const {
    return absorbed_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    fast_signals_.store(0, std::memory_order_relaxed);
    nub_signals_.store(0, std::memory_order_relaxed);
    absorbed_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Timer;
  friend void Alert(ThreadHandle t);
  friend void AlertWait(Mutex& m, Condition& c);
  friend WaitResult AlertWaitFor(Mutex& m, Condition& c,
                                 std::chrono::nanoseconds timeout);

  // Nub subroutine Block(c, i): sleep unless the eventcount moved past i.
  void Block(ThreadRecord* self, EventCount::Value i);
  // Block with a deadline; returns true iff the wait ended by expiry.
  bool BlockFor(ThreadRecord* self, EventCount::Value i,
                std::uint64_t deadline_ns);
  void NubSignal();
  void NubBroadcast();

  // Traced (spec-emitting) paths.
  void TracedWait(Mutex& m, ThreadRecord* self);
  WaitResult TracedWaitFor(Mutex& m, ThreadRecord* self,
                           std::uint64_t deadline_ns);
  void TracedSignal(ThreadRecord* self);
  void TracedBroadcast(ThreadRecord* self);
  bool EraseWindow(ThreadRecord* rec);          // nub_lock_ held
  bool ErasePendingRaise(ThreadRecord* rec);    // nub_lock_ held
  bool ErasePendingTimeout(ThreadRecord* rec);  // nub_lock_ held

  EventCount ec_;
  ObjLock nub_lock_;  // guards queue_, window_, pending_raise_
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<std::int32_t> waiters_{0};
  spec::ObjId id_;

  // Traced-mode bookkeeping (guarded by nub_lock_): threads between their
  // Enqueue action and their entry into Block (the wakeup-waiting window),
  // threads that have committed to raising Alerted but are still members of
  // the spec-level set c, and threads the timer dequeued whose
  // TimeoutResume action has not yet fired (still spec-members likewise).
  std::vector<ThreadRecord*> window_;
  std::vector<ThreadRecord*> pending_raise_;
  std::vector<ThreadRecord*> pending_timeout_;

  std::atomic<std::uint64_t> fast_signals_{0};
  std::atomic<std::uint64_t> nub_signals_{0};
  std::atomic<std::uint64_t> absorbed_{0};
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_CONDITION_H_
