#include "src/threads/rwmutex.h"

#include <vector>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

ReaderWriterMutex::ReaderWriterMutex() : id_(Nub::Get().NextObjId()) {}

ReaderWriterMutex::~ReaderWriterMutex() {
  TAOS_CHECK(readers_queue_.Empty());
  TAOS_CHECK(writers_queue_.Empty());
  TAOS_CHECK(word_.load(std::memory_order_relaxed) == 0);
}

bool ReaderWriterMutex::SharedCasLoop() {
  std::uint32_t w = word_.load(std::memory_order_relaxed);
  while ((w & kWriterBit) == 0) {
    if (word_.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      // The reader-admission commit point: a writer's enqueue-then-test may
      // be racing this CAS.
      TAOS_CHAOS(kRwlockReaderCas);
      return true;
    }
  }
  return false;
}

// --- exclusive (writer) mode ---

void ReaderWriterMutex::Acquire() {
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      TracedAcquire(self);
      return;
    }
    // User-code fast path: one CAS of 0 -> writer-bit when uncontended.
    std::uint32_t expected = 0;
    if (word_.compare_exchange_strong(expected, kWriterBit,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      fast_acquires_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastMutexAcquire);
      NoteAcquired(self);
      return;
    }
    NubAcquire(self);
    NoteAcquired(self);
  });
}

bool ReaderWriterMutex::TryAcquire() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    NubGuard g(nub_lock_);
    if (word_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    word_.store(kWriterBit, std::memory_order_relaxed);
    NoteAcquired(self);
    nub.EmitTraced(spec::MakeRwAcquire(self->id, id_));
    return true;
  }
  std::uint32_t expected = 0;
  if (word_.compare_exchange_strong(expected, kWriterBit,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
    fast_acquires_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(obs::Counter::kFastMutexAcquire);
    NoteAcquired(self);
    return true;
  }
  return false;
}

WaitResult ReaderWriterMutex::AcquireFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    std::uint32_t expected = 0;
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedAcquireFor(self, deadline) ? WaitResult::kSatisfied
                                                : WaitResult::kTimeout;
    } else if (word_.compare_exchange_strong(expected, kWriterBit,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
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

void ReaderWriterMutex::Release() {
  obs::WithEvent(obs::Op::kRelease, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    // REQUIRES rw.writer = SELF (library extension; the spec trusts the
    // caller, the implementation does not).
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubRelease);
      TracedRelease(self);
      return;
    }
    NoteReleased();
    // User code: clear the word; call the Nub only if someone is queued.
    // The seq_cst store/load pairs with the enqueue-then-test in the
    // acquire slow paths (both reader and writer sides), so no waiter is
    // left parked with the lock free.
    word_.store(0, std::memory_order_seq_cst);
    if (reader_q_len_.load(std::memory_order_seq_cst) > 0 ||
        writer_q_len_.load(std::memory_order_seq_cst) > 0) {
      NubReleaseExclusive();
    } else {
      obs::Inc(obs::Counter::kFastMutexRelease);
    }
  });
}

// --- shared (reader) mode ---

void ReaderWriterMutex::AcquireShared() {
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      TracedAcquireShared(self);
      return;
    }
    if (SharedCasLoop()) {
      fast_acquires_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastMutexAcquire);
      return;
    }
    NubAcquireShared(self);
  });
}

bool ReaderWriterMutex::TryAcquireShared() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    NubGuard g(nub_lock_);
    const std::uint32_t w = word_.load(std::memory_order_relaxed);
    if ((w & kWriterBit) != 0) {
      return false;
    }
    word_.store(w + 1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeRwAcquireShared(self->id, id_));
    return true;
  }
  if (SharedCasLoop()) {
    fast_acquires_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(obs::Counter::kFastMutexAcquire);
    return true;
  }
  return false;
}

WaitResult ReaderWriterMutex::AcquireSharedFor(
    std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedAcquireSharedFor(self, deadline)
                   ? WaitResult::kSatisfied
                   : WaitResult::kTimeout;
    } else if (SharedCasLoop()) {
      fast_acquires_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kFastMutexAcquire);
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (NubAcquireSharedFor(self, DeadlineAfter(timeout))) {
      // Admitted by the retried CAS inside the slow path.
    } else {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void ReaderWriterMutex::ReleaseShared() {
  obs::WithEvent(obs::Op::kRelease, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubRelease);
      TracedReleaseShared(self);
      return;
    }
    // REQUIRES SELF IN rw.readers: the word cannot show a writer and must
    // count at least this reader (set membership proper is the trace
    // checker's job; the count catches both misuse death-test shapes).
    const std::uint32_t prev = word_.fetch_sub(1, std::memory_order_seq_cst);
    TAOS_CHECK((prev & kWriterBit) == 0 && prev != 0);
    if (prev == 1) {
      // Last reader out: wake one queued writer. The seq_cst fetch_sub
      // above against the writer's enqueue-then-test is the same Dekker
      // pairing as Release's clear-then-scan.
      TAOS_CHAOS(kRwlockLastReaderWake);
      if (writer_q_len_.load(std::memory_order_seq_cst) > 0) {
        NubWakeOneWriter();
      } else {
        obs::Inc(obs::Counter::kFastMutexRelease);
      }
    } else {
      obs::Inc(obs::Counter::kFastMutexRelease);
    }
  });
}

// --- Nub (slow-path) subroutines, untimed ---

void ReaderWriterMutex::NubAcquire(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // Enqueue on the writer queue, then re-test the whole word: a writer
      // is excluded by the writer bit or any nonzero reader count.
      writers_queue_.PushBack(self);
      writer_q_len_.fetch_add(1, std::memory_order_seq_cst);
      if (word_.load(std::memory_order_seq_cst) != 0) {
        MarkBlocked(self, ThreadRecord::BlockKind::kRwExclusive, this, id_,
                    &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        writers_queue_.Remove(self);
        writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      ParkBlocked(self);
    }
    // Retry the entire acquisition from the CAS; barging is possible
    // exactly as in Mutex.
    std::uint32_t expected = 0;
    if (word_.compare_exchange_strong(expected, kWriterBit,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      return;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
  }
}

void ReaderWriterMutex::NubAcquireShared(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // Enqueue on the reader queue, then re-test the writer bit only —
      // other readers never exclude a reader.
      readers_queue_.PushBack(self);
      reader_q_len_.fetch_add(1, std::memory_order_seq_cst);
      if ((word_.load(std::memory_order_seq_cst) & kWriterBit) != 0) {
        MarkBlocked(self, ThreadRecord::BlockKind::kRwShared, this, id_,
                    &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        readers_queue_.Remove(self);
        reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      ParkBlocked(self);
    }
    if (SharedCasLoop()) {
      return;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
  }
}

// --- Nub (slow-path) subroutines, timed ---

bool ReaderWriterMutex::NubAcquireFor(ThreadRecord* self,
                                      std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      writers_queue_.PushBack(self);
      writer_q_len_.fetch_add(1, std::memory_order_seq_cst);
      if (word_.load(std::memory_order_seq_cst) != 0) {
        gen = ++self->next_timer_gen;
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kRwExclusive, this, id_,
                         &nub_lock_, /*alertable=*/false);
        PublishTimedLocked(self, gen);
        parked = true;
      } else {
        writers_queue_.Remove(self);
        writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      Timer::Get().Arm(self, gen, deadline_ns);
      ParkBlocked(self);
      Timer::Get().Cancel(self, gen);
    }
    const bool expired = parked && ConsumeTimeoutWoken(self);
    // CAS first, deadline second: a wake delivered because the lock was
    // released must never be thrown away on a co-incident expiry.
    std::uint32_t expected = 0;
    if (word_.compare_exchange_strong(expected, kWriterBit,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
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

bool ReaderWriterMutex::NubAcquireSharedFor(ThreadRecord* self,
                                            std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  slow_acquires_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      readers_queue_.PushBack(self);
      reader_q_len_.fetch_add(1, std::memory_order_seq_cst);
      if ((word_.load(std::memory_order_seq_cst) & kWriterBit) != 0) {
        gen = ++self->next_timer_gen;
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kRwShared, this, id_,
                         &nub_lock_, /*alertable=*/false);
        PublishTimedLocked(self, gen);
        parked = true;
      } else {
        readers_queue_.Remove(self);
        reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked) {
      Timer::Get().Arm(self, gen, deadline_ns);
      ParkBlocked(self);
      Timer::Get().Cancel(self, gen);
    }
    const bool expired = parked && ConsumeTimeoutWoken(self);
    if (SharedCasLoop()) {
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

// --- Nub (slow-path) subroutines, release side ---

void ReaderWriterMutex::NubReleaseExclusive() {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubRelease);
  // An exclusive release wakes EVERY queued reader plus one queued writer:
  // the readers can all be admitted together, and the writer contends with
  // them (barging decides the rest).
  std::vector<ThreadRecord*> wakes;
  {
    NubGuard g(nub_lock_);
    for (ThreadRecord* wake = readers_queue_.PopFront(); wake != nullptr;
         wake = readers_queue_.PopFront()) {
      reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      wakes.push_back(wake);
    }
    ThreadRecord* wake = writers_queue_.PopFront();
    if (wake != nullptr) {
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      wakes.push_back(wake);
    }
  }
  for (ThreadRecord* wake : wakes) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

void ReaderWriterMutex::NubWakeOneWriter() {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs::Counter::kNubRelease);
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    wake = writers_queue_.PopFront();
    if (wake != nullptr) {
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

// --- traced (spec-emitting) paths ---

void ReaderWriterMutex::TracedAcquire(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      NubGuard g(nub_lock_);
      // WHEN rw.writer = NIL AND rw.readers = {}: the whole word is zero.
      if (word_.load(std::memory_order_relaxed) == 0) {
        word_.store(kWriterBit, std::memory_order_relaxed);
        NoteAcquired(self);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquire(self->id, id_));
        return;
      }
      writers_queue_.PushBack(self);
      writer_q_len_.fetch_add(1, std::memory_order_relaxed);
      MarkBlocked(self, ThreadRecord::BlockKind::kRwExclusive, this, id_,
                  &nub_lock_, /*alertable=*/false);
    }
    ParkBlocked(self);
  }
}

void ReaderWriterMutex::TracedAcquireShared(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      NubGuard g(nub_lock_);
      // WHEN rw.writer = NIL. (REQUIRES NOT (SELF IN rw.readers) is the
      // trace checker's to verify — the word holds no membership.)
      const std::uint32_t w = word_.load(std::memory_order_relaxed);
      if ((w & kWriterBit) == 0) {
        word_.store(w + 1, std::memory_order_relaxed);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireShared(self->id, id_));
        return;
      }
      readers_queue_.PushBack(self);
      reader_q_len_.fetch_add(1, std::memory_order_relaxed);
      MarkBlocked(self, ThreadRecord::BlockKind::kRwShared, this, id_,
                  &nub_lock_, /*alertable=*/false);
    }
    ParkBlocked(self);
  }
}

bool ReaderWriterMutex::TracedAcquireFor(ThreadRecord* self,
                                         std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      // The acquire test comes before the deadline test, so a grant always
      // beats a co-incident expiry.
      if (word_.load(std::memory_order_relaxed) == 0) {
        word_.store(kWriterBit, std::memory_order_relaxed);
        NoteAcquired(self);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquire(self->id, id_));
        return true;
      }
      if (obs::NowNanos() >= deadline_ns) {
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireTimeout(self->id, id_));
        return false;
      }
      gen = ++self->next_timer_gen;
      writers_queue_.PushBack(self);
      writer_q_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kRwExclusive, this, id_,
                       &nub_lock_, /*alertable=*/false);
      PublishTimedLocked(self, gen);
    }
    Timer::Get().Arm(self, gen, deadline_ns);
    ParkBlocked(self);
    Timer::Get().Cancel(self, gen);
    ConsumeTimeoutWoken(self);  // loop-top deadline check decides
  }
}

bool ReaderWriterMutex::TracedAcquireSharedFor(ThreadRecord* self,
                                               std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  nub.nub_entries.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::uint64_t gen = 0;
    {
      NubGuard g(nub_lock_);
      const std::uint32_t w = word_.load(std::memory_order_relaxed);
      if ((w & kWriterBit) == 0) {
        word_.store(w + 1, std::memory_order_relaxed);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireShared(self->id, id_));
        return true;
      }
      if (obs::NowNanos() >= deadline_ns) {
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireSharedTimeout(self->id, id_));
        return false;
      }
      gen = ++self->next_timer_gen;
      readers_queue_.PushBack(self);
      reader_q_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kRwShared, this, id_,
                       &nub_lock_, /*alertable=*/false);
      PublishTimedLocked(self, gen);
    }
    Timer::Get().Arm(self, gen, deadline_ns);
    ParkBlocked(self);
    Timer::Get().Cancel(self, gen);
    ConsumeTimeoutWoken(self);
  }
}

void ReaderWriterMutex::TracedRelease(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  std::vector<ThreadRecord*> wakes;
  {
    NubGuard g(nub_lock_);
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    NoteReleased();
    word_.store(0, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeRwRelease(self->id, id_));
    for (ThreadRecord* wake = readers_queue_.PopFront(); wake != nullptr;
         wake = readers_queue_.PopFront()) {
      reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      wakes.push_back(wake);
    }
    ThreadRecord* wake = writers_queue_.PopFront();
    if (wake != nullptr) {
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      wakes.push_back(wake);
    }
  }
  for (ThreadRecord* wake : wakes) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

void ReaderWriterMutex::TracedReleaseShared(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    const std::uint32_t w = word_.load(std::memory_order_relaxed);
    // REQUIRES SELF IN rw.readers, as far as the word can tell; the trace
    // checker verifies exact membership.
    TAOS_CHECK((w & kWriterBit) == 0 && w != 0);
    word_.store(w - 1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeRwReleaseShared(self->id, id_));
    if (w == 1) {
      wake = writers_queue_.PopFront();
      if (wake != nullptr) {
        writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
        MarkUnblocked(wake);
      }
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

}  // namespace taos
