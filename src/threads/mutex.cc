#include "src/threads/mutex.h"

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

Mutex::Mutex() : id_(Nub::Get().NextObjId()) {}

Mutex::~Mutex() {
  TAOS_CHECK(queue_.Empty());
  TAOS_CHECK(bit_.load(std::memory_order_relaxed) == 0);
}

void Mutex::Acquire() {
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      TracedAcquire(self, spec::MakeAcquire(self->id, id_));
      return;
    }
    // User-code fast path: one test-and-set when there is no contention.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      fast_acquires_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastMutexAcquire);
      NoteAcquired(self);
      return;
    }
    NubAcquire(self);
    NoteAcquired(self);
  });
}

bool Mutex::TryAcquire() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    NubGuard g(nub_lock_);
    if (bit_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    bit_.store(1, std::memory_order_relaxed);
    NoteAcquired(self);
    nub.EmitTraced(spec::MakeAcquire(self->id, id_));
    return true;
  }
  if (bit_.exchange(1, std::memory_order_acquire) == 0) {
    fast_acquires_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(obs::Counter::kFastMutexAcquire);
    NoteAcquired(self);
    return true;
  }
  return false;
}

WaitResult Mutex::AcquireFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      // deadline 0 is always in the past, so a nonpositive timeout becomes
      // one locked attempt followed by the timeout action.
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedAcquireFor(self, deadline) ? WaitResult::kSatisfied
                                                : WaitResult::kTimeout;
    } else if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      // Same user-code fast path as Acquire — tried even with an expired
      // deadline, so AcquireFor(0) is TryAcquire with a WaitResult.
      fast_acquires_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastMutexAcquire);
      NoteAcquired(self);
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (NubAcquireFor(self, DeadlineAfter(timeout))) {
      NoteAcquired(self);
    } else {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void Mutex::NubAcquire(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // Add the calling thread to the Queue, then test the Lock-bit again.
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kMutexEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        // Still held: de-schedule this thread. It stays queued; Release will
        // make it ready.
        MarkBlocked(self, ThreadRecord::BlockKind::kMutex, this, id_, &nub_lock_,
                    /*alertable=*/false);
        parked = true;
      } else {
        // Released in the meantime: back out and retry the whole Acquire.
        TAOS_CHAOS(kMutexBackout);
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      ParkBlocked(self);
    }
    TAOS_CHAOS(kMutexWakeToRetry);
    // Retry the entire Acquire operation, beginning at the test-and-set.
    // Another thread may barge in and win; the spec does not say which
    // blocked thread acquires next.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      // Unparked, but a barging thread won the retried test-and-set.
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
  }
}

bool Mutex::NubAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kMutexEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        gen = ++self->next_timer_gen;
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kMutex, this, id_,
                         &nub_lock_, /*alertable=*/false);
        PublishTimedLocked(self, gen);
        parked = true;
      } else {
        TAOS_CHAOS(kMutexBackout);
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      // Arm outside every lock (the wheel lock is a leaf); the parker's
      // permit absorbs an expiry or grant that lands before the park.
      Timer::Get().Arm(self, gen, deadline_ns);
      ParkBlocked(self);
      Timer::Get().Cancel(self, gen);
      TAOS_CHAOS(kMutexTimedFinish);
    }
    const bool expired = parked && ConsumeTimeoutWoken(self);
    // Exchange FIRST, deadline second: a wake delivered because the mutex
    // was released must never be thrown away on a co-incident expiry.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return true;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || obs::NowNanos() >= deadline_ns) {
      // Timed out (or unparked by a grant, barged, and found the deadline
      // gone). Whoever dequeued this record — timer or releaser — already
      // removed it from the queue; there is nothing to back out.
      return false;
    }
  }
}

void Mutex::Release() {
  obs::WithEvent(obs::Op::kRelease, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    // REQUIRES m = SELF. (Checked here as a library extension; the paper's
    // implementation trusted the caller.)
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubRelease);
      TracedRelease(self);
      return;
    }
    NoteReleased();
    // User code: clear the Lock-bit; call the Nub only if the Queue is
    // non-empty. The seq_cst store/load pair below pairs with the
    // enqueue-then-test in NubAcquire so that at least one side sees the
    // other (no thread is left parked with the mutex free).
    bit_.store(0, std::memory_order_seq_cst);
    TAOS_CHAOS(kMutexReleaseWindow);
    if (queue_len_.load(std::memory_order_seq_cst) > 0) {
      NubRelease();
    } else {
      obs::Inc(obs::Counter::kFastMutexRelease);
    }
  });
}

void Mutex::NubRelease() {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubRelease);
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    wake = queue_.PopFront();
    if (wake != nullptr) {
      queue_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    // Add it to the ready pool: here, hand its processor back by unparking.
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

void Mutex::TracedAcquire(ThreadRecord* self, const spec::Action& emit) {
  TracedAcquire(self, emit, nullptr, nullptr);
}

void Mutex::TracedAcquire(ThreadRecord* self, const spec::Action& emit,
                          ObjLock* co_lock,
                          const std::function<void()>& at_success) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      NubGuard2 g(nub_lock_, co_lock);
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        NoteAcquired(self);
        // Self's record lock serializes the emitted action against Alert's
        // (at_success may read and clear the alert flag).
        SpinGuard tg(self->lock);
        if (at_success) {
          at_success();
        }
        nub.EmitTraced(emit);
        return;
      }
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      MarkBlocked(self, ThreadRecord::BlockKind::kMutex, this, id_, &nub_lock_,
                  /*alertable=*/false);
    }
    ParkBlocked(self);
  }
}

bool Mutex::TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      // The acquire test comes before the deadline test, so a grant always
      // beats a co-incident expiry.
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        NoteAcquired(self);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeAcquire(self->id, id_));
        return true;
      }
      if (obs::NowNanos() >= deadline_ns) {
        // Deadline passed with the mutex still held: the spec's
        // AcquireFor/TIMEOUT action, a no-op on m, emitted as one atomic
        // action under the object lock. This check subsumes timeout_woken —
        // an expiry implies the deadline is behind us (round-up placement).
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeAcquireTimeout(self->id, id_));
        return false;
      }
      gen = ++self->next_timer_gen;
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kMutex, this, id_,
                       &nub_lock_, /*alertable=*/false);
      PublishTimedLocked(self, gen);
    }
    Timer::Get().Arm(self, gen, deadline_ns);
    ParkBlocked(self);
    Timer::Get().Cancel(self, gen);
    ConsumeTimeoutWoken(self);  // loop-top deadline check decides
  }
}

void Mutex::TracedRelease(ThreadRecord* self) {
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    wake = TracedReleaseLocked(self, /*emit_release=*/true);
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

ThreadRecord* Mutex::TracedReleaseLocked(ThreadRecord* self,
                                         bool emit_release) {
  Nub& nub = Nub::Get();
  TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
  NoteReleased();
  bit_.store(0, std::memory_order_relaxed);
  if (emit_release) {
    nub.EmitTraced(spec::MakeRelease(self->id, id_));
  }
  ThreadRecord* wake = queue_.PopFront();
  if (wake != nullptr) {
    queue_len_.fetch_sub(1, std::memory_order_relaxed);
    MarkUnblocked(wake);
  }
  return wake;
}

}  // namespace taos
