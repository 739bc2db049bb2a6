#include "src/threads/semaphore.h"

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

Semaphore::Semaphore() : id_(Nub::Get().NextObjId()) {}

Semaphore::~Semaphore() {
  TAOS_CHECK(queue_.Empty());
}

void Semaphore::P() {
  obs::WithEvent(obs::Op::kP, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubP);
      TracedP(self);
      return;
    }
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      fast_ps_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastSemP);
      return;
    }
    NubP(self);
  });
}

bool Semaphore::TryP() {
  Nub& nub = Nub::Get();
  if (nub.tracing()) {
    ThreadRecord* self = nub.Current();
    NubGuard g(nub_lock_);
    if (bit_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    bit_.store(1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeP(self->id, id_));
    return true;
  }
  if (bit_.exchange(1, std::memory_order_acquire) == 0) {
    fast_ps_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(obs::Counter::kFastSemP);
    return true;
  }
  return false;
}

WaitResult Semaphore::PFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kP, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubP);
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedPFor(self, deadline) ? WaitResult::kSatisfied
                                          : WaitResult::kTimeout;
    } else if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      // Fast path tried even with an expired deadline: PFor(0) is TryP with
      // a WaitResult.
      fast_ps_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastSemP);
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (!NubPFor(self, DeadlineAfter(timeout))) {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void Semaphore::NubP(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_ps_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubP);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kSemEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        MarkBlocked(self, ThreadRecord::BlockKind::kSemaphore, this, id_,
                    &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        TAOS_CHAOS(kSemBackout);
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      ParkBlocked(self);
    }
    TAOS_CHAOS(kSemWakeToRetry);
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
  }
}

bool Semaphore::NubPFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_ps_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubP);
  for (;;) {
    bool parked = false;
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kSemEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        gen = ++self->next_timer_gen;
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kSemaphore, this, id_,
                         &nub_lock_, /*alertable=*/false);
        PublishTimedLocked(self, gen);
        parked = true;
      } else {
        TAOS_CHAOS(kSemBackout);
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      Timer::Get().Arm(self, gen, deadline_ns);
      ParkBlocked(self);
      Timer::Get().Cancel(self, gen);
      TAOS_CHAOS(kSemTimedFinish);
    }
    const bool expired = parked && ConsumeTimeoutWoken(self);
    // Exchange FIRST, deadline second: a V's grant is never converted into
    // a timeout by a co-incident expiry.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return true;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || obs::NowNanos() >= deadline_ns) {
      return false;
    }
  }
}

void Semaphore::V() {
  obs::WithEvent(obs::Op::kV, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubV);
      TracedV(nub.Current());
      return;
    }
    bit_.store(0, std::memory_order_seq_cst);
    TAOS_CHAOS(kSemReleaseWindow);
    if (queue_len_.load(std::memory_order_seq_cst) > 0) {
      NubV();
    } else {
      obs::Inc(obs::Counter::kFastSemV);
    }
  });
}

void Semaphore::NubV() {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubV);
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
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

void Semaphore::TracedP(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      NubGuard g(nub_lock_);
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        nub.EmitTraced(spec::MakeP(self->id, id_));
        return;
      }
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      MarkBlocked(self, ThreadRecord::BlockKind::kSemaphore, this, id_,
                  &nub_lock_, /*alertable=*/false);
    }
    ParkBlocked(self);
  }
}

bool Semaphore::TracedPFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      // Take-test before deadline-test: a grant beats a co-incident expiry.
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeP(self->id, id_));
        return true;
      }
      if (obs::NowNanos() >= deadline_ns) {
        // PFor/TIMEOUT: a no-op on s, one atomic action under the object
        // lock. Subsumes timeout_woken (round-up placement means an expiry
        // implies the deadline is behind us).
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakePTimeout(self->id, id_));
        return false;
      }
      gen = ++self->next_timer_gen;
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kSemaphore, this, id_,
                       &nub_lock_, /*alertable=*/false);
      PublishTimedLocked(self, gen);
    }
    Timer::Get().Arm(self, gen, deadline_ns);
    ParkBlocked(self);
    Timer::Get().Cancel(self, gen);
    ConsumeTimeoutWoken(self);  // loop-top deadline check decides
  }
}

void Semaphore::TracedV(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    bit_.store(0, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeV(self->id, id_));
    wake = queue_.PopFront();
    if (wake != nullptr) {
      queue_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

}  // namespace taos
