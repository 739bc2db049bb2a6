// The Nub's deadline subsystem: a hierarchical timing wheel driven by one
// timer thread, serving every timed wait in the process.
//
// The paper's Nub has no timeouts; the Taos interface above it did (the
// WaitWithTimeout idiom in src/workload built one from a watchdog thread per
// call). This subsystem makes deadlines first-class instead: a timed waiter
// parks exactly like an un-timed one, and the timer thread cancels it on
// expiry the same way Alert(t) cancels an alertable waiter — under the
// record lock, through the published blocking state (an intrusive-queue
// removal under the rule-3 try-lock). The expiry-vs-grant race is therefore arbitrated by machinery that already
// exists and is already model-checked: whoever dequeues the waiter first
// wins, and a timed wait that loses the expiry-vs-grant race keeps the
// grant.
//
// Arming protocol (the waiter's side):
//   1. Under the record lock, while publishing the blocked state, the waiter
//      also publishes `timed = true`, a fresh `timer_gen`, and clears
//      `timeout_woken`.
//   2. After dropping every lock (and before parking), it calls
//      Arm(rec, gen, deadline). The parker's permit discipline makes the
//      order safe: an expiry or grant that lands before the park just
//      deposits the permit early.
//   3. After waking it always calls Cancel(rec, gen), then reads
//      `timeout_woken` under the record lock to learn whether the timer was
//      what woke it.
// A stale expiry (the waiter was granted, woke, maybe even re-blocked)
// validates against `timed`/`timer_gen`/`block_kind` under the record lock
// and becomes a no-op. `gen` values are per-thread and never reused, so the
// validation cannot be fooled by an ABA on the record's blocking state.
//
// The wheel: kLevels levels of kSlots slots, tick = 2^kTickShift ns
// (~262 us). Deadlines are placed at their tick rounded UP, so the wheel
// never fires early; far-future deadlines are clamped into the top level and
// re-placed as cascades bring them closer. The timer thread sleeps on its
// own Parker until the earliest due tick (or forever when the wheel is
// empty) and is unparked early when an Arm installs an earlier deadline.
//
// Lock ordering: the wheel lock is a leaf on the arming side (Arm and
// Cancel are called with no other lock held). The timer thread collects due
// entries under the wheel lock into a local batch, releases it, and only
// then runs the cancellation protocol (record lock, then TRY-acquire of the
// object lock exactly as in Alert — rule 3 in nub.h), so the wheel lock
// never nests with the record or object locks in either direction.

#ifndef TAOS_SRC_THREADS_TIMER_H_
#define TAOS_SRC_THREADS_TIMER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/threads/thread_record.h"
#include "src/waitq/parker.h"

namespace taos {

// Converts a (positive) relative timeout into a deadline on the
// obs::NowNanos timeline, saturating instead of wrapping for far-future
// requests.
inline std::uint64_t DeadlineAfter(std::chrono::nanoseconds timeout) {
  const std::uint64_t now = obs::NowNanos();
  const std::uint64_t delta = static_cast<std::uint64_t>(timeout.count());
  const std::uint64_t deadline = now + delta;
  return deadline < now ? std::numeric_limits<std::uint64_t>::max() : deadline;
}

class Timer {
 public:
  // The process-wide timer, starting its thread on first use. Intentionally
  // leaked, like the Nub: the detached timer thread may still be running at
  // process exit.
  static Timer& Get();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Inserts rec's deadline (obs::NowNanos timeline) into the wheel. The
  // caller must have published rec->timed / rec->timer_gen == gen under the
  // record lock first, and must hold no locks here. A deadline already in
  // the past fires at the next tick — never synchronously in the caller.
  void Arm(ThreadRecord* rec, std::uint64_t gen, std::uint64_t deadline_ns);

  // Removes the deadline if generation `gen` is still armed; a no-op after
  // the wheel already fired it. Every timed wait calls this once on the way
  // out, whatever woke it.
  void Cancel(ThreadRecord* rec, std::uint64_t gen);

  // Racy snapshot for tests.
  std::uint64_t ArmedForDebug();

  // The instance if Get() has ever run, else nullptr — without starting the
  // timer thread as a side effect. For Nub::SetLockBackend's quiesce.
  static Timer* InstanceIfStarted();

  // Parks the timer thread at a point where it holds no SpinLock and will
  // acquire none until resumed. SetBackend's quiescence contract covers
  // every lock a caller can drain by joining its own threads; the detached
  // timer thread is the one holder nobody can join — it takes the wheel
  // lock on every tick and record/object locks during expiry — so a
  // process-wide backend switch must bracket itself with this pair.
  // In-flight expiry batches drain before the pause takes effect.
  void PauseForBackendSwitch();
  void ResumeAfterBackendSwitch();

 private:
  // tick = 2^18 ns ~ 262 us; 4 levels of 64 slots cover ~4.7 days, and
  // anything farther is clamped into the top level (re-placed on cascade).
  static constexpr int kTickShift = 18;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 4;

  struct Expiry {
    ThreadRecord* rec;
    std::uint64_t gen;
    std::uint64_t deadline_ns;
  };

  Timer();

  static std::uint64_t TickOf(std::uint64_t deadline_ns) {
    // Round UP: the slot's tick boundary is at or after the deadline, so
    // processing the slot can never fire an entry early.
    return (deadline_ns >> kTickShift) +
           ((deadline_ns & ((1ull << kTickShift) - 1)) != 0 ? 1 : 0);
  }

  void ThreadMain();

  // Wheel manipulation; all require lock_ held.
  void AddLocked(TimerNode* n);
  void UnlinkLocked(TimerNode* n);
  void AdvanceLocked(std::uint64_t now_ns, std::vector<Expiry>* out);
  void CascadeLocked(int level, std::vector<Expiry>* out);
  void CollectSlotLocked(TimerNode* sentinel, int level,
                         std::vector<Expiry>* out);
  // Earliest wake-up time (ns) the thread must sleep until, or 0 for
  // "forever" (empty wheel).
  std::uint64_t NextWakeNsLocked() const;

  // Runs the cancellation protocol for one fired entry (no wheel lock
  // held): validate under the record lock, dequeue by the same rules as
  // Alert, set timeout_woken, unpark.
  void ExpireEntry(const Expiry& e);

  SpinLock lock_;
  TimerNode slots_[kLevels][kSlots];  // circular-list sentinels
  int counts_[kLevels] = {};
  std::uint64_t total_ = 0;
  std::uint64_t current_tick_ = 0;
  // The wake-up time the timer thread last committed to sleep until:
  // 0 while it is awake (no unpark needed — it will recompute), UINT64_MAX
  // while sleeping on an empty wheel. Guarded by lock_.
  std::uint64_t wake_target_ns_ = 0;

  waitq::Parker park_;

  // The backend-switch gate. Checked at the top of ThreadMain's loop, where
  // the thread holds no SpinLock; std::mutex + condvar on purpose — the
  // gate must not ride the very substrate being switched.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool pause_requested_ = false;
  bool paused_ = false;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_TIMER_H_
