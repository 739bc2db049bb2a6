#include "src/threads/timer.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/threads/condition.h"
#include "src/threads/event.h"
#include "src/threads/mutex.h"
#include "src/threads/nub.h"
#include "src/threads/rwmutex.h"
#include "src/threads/semaphore.h"

namespace taos {

namespace {
constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();
std::atomic<Timer*> g_timer{nullptr};
}  // namespace

Timer& Timer::Get() {
  static Timer* timer = [] {
    Timer* t = new Timer();  // intentionally leaked; see header
    g_timer.store(t, std::memory_order_release);
    return t;
  }();
  return *timer;
}

Timer* Timer::InstanceIfStarted() {
  return g_timer.load(std::memory_order_acquire);
}

void Timer::PauseForBackendSwitch() {
  {
    std::lock_guard<std::mutex> g(pause_mu_);
    pause_requested_ = true;
  }
  park_.Unpark();  // break an open-ended sleep; a pre-park permit is fine
  std::unique_lock<std::mutex> g(pause_mu_);
  pause_cv_.wait(g, [this] { return paused_; });
}

void Timer::ResumeAfterBackendSwitch() {
  {
    std::lock_guard<std::mutex> g(pause_mu_);
    pause_requested_ = false;
  }
  pause_cv_.notify_all();
}

Timer::Timer() {
  for (int level = 0; level < kLevels; ++level) {
    for (int slot = 0; slot < kSlots; ++slot) {
      TimerNode* s = &slots_[level][slot];
      s->prev = s;
      s->next = s;
    }
  }
  current_tick_ = obs::NowNanos() >> kTickShift;
  std::thread([this] { ThreadMain(); }).detach();
}

void Timer::Arm(ThreadRecord* rec, std::uint64_t gen,
                std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kTimersArmed);
  TAOS_CHAOS(kTimerArm);
  bool wake = false;
  {
    SpinGuard g(lock_);
    TimerNode* n = &rec->timer;
    TAOS_DCHECK(!n->armed);
    n->owner = rec;
    n->gen = gen;
    n->deadline_ns = deadline_ns;
    n->armed = true;
    AddLocked(n);
    // Wake the timer thread early if it committed to sleep past this
    // deadline (a conservative comparison: the wheel may round the actual
    // firing up to the next tick; the thread recomputes after waking).
    if (wake_target_ns_ != 0 && deadline_ns < wake_target_ns_) {
      wake = true;
    }
  }
  if (wake) {
    park_.Unpark();
  }
}

void Timer::Cancel(ThreadRecord* rec, std::uint64_t gen) {
  // The cancel-vs-expiry window: the timer thread may have collected this
  // node into an expiry batch already, making the unlink below a no-op.
  TAOS_CHAOS(kTimerCancel);
  SpinGuard g(lock_);
  TimerNode* n = &rec->timer;
  if (n->armed && n->gen == gen) {
    UnlinkLocked(n);
    n->armed = false;
    obs::Inc(obs::Counter::kTimersCancelled);
  }
}

std::uint64_t Timer::ArmedForDebug() {
  SpinGuard g(lock_);
  return total_;
}

void Timer::AddLocked(TimerNode* n) {
  // Never place at or before the current tick: a deadline already due fires
  // at the next tick (expiry is always asynchronous to the arming caller).
  const std::uint64_t tick =
      std::max(TickOf(n->deadline_ns), current_tick_ + 1);
  const std::uint64_t delta = tick - current_tick_;
  int level = 0;
  while (level < kLevels - 1 &&
         delta >= (1ull << (kSlotBits * (level + 1)))) {
    ++level;
  }
  std::uint64_t eff = tick;
  const std::uint64_t horizon = 1ull << (kSlotBits * kLevels);
  if (delta >= horizon) {
    // Beyond the wheel's span: park in the top level's farthest slot; each
    // cascade re-places it by its real tick until it fits.
    eff = current_tick_ + horizon - 1;
  }
  const int slot =
      static_cast<int>((eff >> (kSlotBits * level)) & (kSlots - 1));
  TimerNode* s = &slots_[level][slot];
  n->level = level;
  n->prev = s->prev;
  n->next = s;
  s->prev->next = n;
  s->prev = n;
  ++counts_[level];
  ++total_;
}

void Timer::UnlinkLocked(TimerNode* n) {
  n->prev->next = n->next;
  n->next->prev = n->prev;
  n->prev = nullptr;
  n->next = nullptr;
  --counts_[n->level];
  --total_;
}

void Timer::CollectSlotLocked(TimerNode* sentinel, int level,
                              std::vector<Expiry>* out) {
  (void)level;
  while (sentinel->next != sentinel) {
    TimerNode* n = sentinel->next;
    UnlinkLocked(n);
    n->armed = false;
    TAOS_DCHECK(TickOf(n->deadline_ns) <= current_tick_);
    out->push_back(Expiry{n->owner, n->gen, n->deadline_ns});
  }
}

void Timer::CascadeLocked(int level, std::vector<Expiry>* out) {
  const int slot = static_cast<int>(
      (current_tick_ >> (kSlotBits * level)) & (kSlots - 1));
  TimerNode* s = &slots_[level][slot];
  // Detach the whole slot first: AddLocked below re-links into the wheel and
  // must not see these nodes.
  TimerNode* head = s->next;
  if (head == s) {
    return;
  }
  s->prev->next = nullptr;  // terminate the detached chain
  s->prev = s;
  s->next = s;
  while (head != nullptr) {
    TimerNode* n = head;
    head = n->next;
    n->prev = nullptr;
    n->next = nullptr;
    --counts_[level];
    --total_;
    if (TickOf(n->deadline_ns) <= current_tick_) {
      n->armed = false;
      out->push_back(Expiry{n->owner, n->gen, n->deadline_ns});
    } else {
      AddLocked(n);  // re-place by its real tick (now within a lower level)
    }
  }
}

void Timer::AdvanceLocked(std::uint64_t now_ns, std::vector<Expiry>* out) {
  const std::uint64_t now_tick = now_ns >> kTickShift;
  while (current_tick_ < now_tick) {
    if (total_ == 0) {
      // Nothing armed: skip the idle span instead of walking every tick.
      current_tick_ = now_tick;
      return;
    }
    ++current_tick_;
    // On every 64^k boundary the slot of level k covering the new tick
    // range cascades down before level 0's slot for this tick is drained.
    for (int level = 1; level < kLevels; ++level) {
      if ((current_tick_ & ((1ull << (kSlotBits * level)) - 1)) != 0) {
        break;
      }
      CascadeLocked(level, out);
    }
    CollectSlotLocked(
        &slots_[0][static_cast<int>(current_tick_ & (kSlots - 1))], 0, out);
  }
}

std::uint64_t Timer::NextWakeNsLocked() const {
  if (total_ == 0) {
    return 0;
  }
  if (counts_[0] > 0) {
    // Every level-0 entry lies within the next kSlots ticks; scan for the
    // first non-empty slot, which is the exact earliest firing tick.
    for (std::uint64_t d = 1; d <= kSlots; ++d) {
      const std::uint64_t tick = current_tick_ + d;
      const TimerNode* s =
          &slots_[0][static_cast<int>(tick & (kSlots - 1))];
      if (s->next != s) {
        return tick << kTickShift;
      }
    }
  }
  // Only higher levels are populated: sleep to the next cascade boundary,
  // where their due slots re-place into level 0 and the sleep recomputes.
  return ((current_tick_ >> kSlotBits) + 1) << (kSlotBits + kTickShift);
}

void Timer::ThreadMain() {
  std::vector<Expiry> expired;
  for (;;) {
    {
      // Backend-switch gate: every SpinLock acquisition this thread makes
      // is downstream of this point, so parking here satisfies the switch's
      // quiescence contract.
      std::unique_lock<std::mutex> g(pause_mu_);
      while (pause_requested_) {
        paused_ = true;
        pause_cv_.notify_all();
        pause_cv_.wait(g);
      }
      paused_ = false;
    }
    expired.clear();
    std::uint64_t next = 0;
    {
      SpinGuard g(lock_);
      wake_target_ns_ = 0;  // awake: Arm need not unpark
      AdvanceLocked(obs::NowNanos(), &expired);
      if (expired.empty()) {
        next = NextWakeNsLocked();
        wake_target_ns_ = next == 0 ? kForever : next;
      }
    }
    if (!expired.empty()) {
      // The batch gap: entries were collected under the wheel lock, but
      // their waiters may be granted (or re-arm) before ExpireEntry runs.
      TAOS_CHAOS(kTimerBatchGap);
      const std::uint64_t now = obs::NowNanos();
      for (const Expiry& e : expired) {
        obs::Inc(obs::Counter::kTimersExpired);
        obs::Record(obs::Histogram::kTimerExpiryLagNanos,
                    now >= e.deadline_ns ? now - e.deadline_ns : 0);
        // The expiry slice names the timed-out thread; the wake it causes
        // (if the cancel wins) carries its own flow edge from the Unpark
        // inside ExpireEntry, so traces show timer -> waiter causality.
        obs::ScopedEvent ev(obs::Op::kTimerExpire, e.rec->id);
        ExpireEntry(e);
      }
      continue;  // expiring took time: re-advance before sleeping
    }
    if (next == 0) {
      park_.Park();
    } else {
      park_.ParkUntil(next);
    }
  }
}

void Timer::ExpireEntry(const Expiry& e) {
  Nub& nub = Nub::Get();
  ThreadRecord* t = e.rec;

  // Multi-object waits first: a Poll waiter publishes no object lock — its
  // blocked state is covered by the record lock alone (the notify-latch
  // protocol, src/threads/poll.cc), so expiry is a record-lock-only dance,
  // traced or not. The gen/timed validation is the usual staleness filter;
  // matching gen means the episode is still parked, so block_kind cannot
  // change under us.
  {
    waitq::Parker* unpark = nullptr;
    t->lock.Acquire();
    const bool poll = t->block_kind == ThreadRecord::BlockKind::kPollAny ||
                      t->block_kind == ThreadRecord::BlockKind::kPollAll;
    if (poll) {
      TAOS_CHAOS(kTimerExpiryToCancel);
      if (t->timed && t->timer_gen == e.gen) {
        ClearBlockedLocked(t);
        t->timeout_woken = true;
        unpark = &t->park;
      }
      t->lock.Release();
      if (unpark != nullptr) {
        obs::Inc(obs::Counter::kHandoffs);
        unpark->Unpark();
      }
      return;
    }
    t->lock.Release();
  }

  // Every other wait: rule 3 of the ordering discipline, exactly as in
  // Alert — record lock first, TRY-acquire the object lock, back off and
  // retry on failure (its holder may be waking t and will need t's record
  // lock).
  for (;;) {
    t->lock.Acquire();
    TAOS_CHAOS(kTimerExpiryToCancel);
    if (!t->timed || t->timer_gen != e.gen ||
        t->block_kind == ThreadRecord::BlockKind::kNone) {
      // Stale: the waiter was granted (or alerted) first.
      t->lock.Release();
      return;
    }
    SpinLock* obj_lock = t->blocked_lock->Resolve();
    if (!obj_lock->TryAcquire()) {
      t->lock.Release();
      // obj_lock may dangle from here on — the record lock is gone, so its
      // holder can wake t and the object can be destroyed. Rule3Backoff
      // yields without peeking at it; the yield also hands the holder
      // (typically a Signal/Release spinning for t's record lock) the
      // window a single pause never did, curing the retry livelock seen
      // under chaos injection.
      Rule3Backoff();
      continue;
    }
    switch (t->block_kind) {
      case ThreadRecord::BlockKind::kMutex: {
        auto* m = static_cast<Mutex*>(t->blocked_obj);
        m->queue_.Remove(t);
        m->queue_len_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      case ThreadRecord::BlockKind::kSemaphore: {
        auto* s = static_cast<Semaphore*>(t->blocked_obj);
        s->queue_.Remove(t);
        s->queue_len_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      case ThreadRecord::BlockKind::kCondition: {
        auto* c = static_cast<Condition*>(t->blocked_obj);
        c->queue_.Remove(t);
        if (nub.tracing()) {
          // The timed-out thread stays a spec-member of c until its
          // TimeoutResume action fires (mirroring pending_raise_), so a
          // Signal in between may still remove it.
          c->pending_timeout_.push_back(t);
        } else {
          c->waiters_.fetch_sub(1, std::memory_order_relaxed);
        }
        break;
      }
      case ThreadRecord::BlockKind::kRwShared: {
        auto* rw = static_cast<ReaderWriterMutex*>(t->blocked_obj);
        rw->readers_queue_.Remove(t);
        rw->reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      case ThreadRecord::BlockKind::kRwExclusive: {
        auto* rw = static_cast<ReaderWriterMutex*>(t->blocked_obj);
        rw->writers_queue_.Remove(t);
        rw->writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      case ThreadRecord::BlockKind::kEvent: {
        auto* ev = static_cast<Event*>(t->blocked_obj);
        ev->queue_.Remove(t);
        ev->queue_len_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      case ThreadRecord::BlockKind::kPollAny:
      case ThreadRecord::BlockKind::kPollAll:
      case ThreadRecord::BlockKind::kNone:
        TAOS_PANIC("unreachable: validated above");
    }
    ClearBlockedLocked(t);
    t->timeout_woken = true;
    obj_lock->Release();
    t->lock.Release();
    obs::Inc(obs::Counter::kHandoffs);
    t->park.Unpark();
    return;
  }
}

}  // namespace taos
