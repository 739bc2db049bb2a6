#include "src/threads/nub.h"

#include <cstdlib>
#include <cstring>

#include "src/base/check.h"
#include "src/threads/timer.h"

namespace taos {

constinit thread_local ThreadRecord* Nub::current_ = nullptr;

namespace {

// Armed by RegisterCurrent / AdoptRecord; its destructor runs when the
// thread ends and gives the thread's waits-for slot back for reuse. A
// separate thread_local, so current_ stays a plain constinit load on every
// fast path.
struct ThreadExitGuard {
  ThreadRecord* rec = nullptr;
  ~ThreadExitGuard() {
    if (rec == nullptr) {
      return;
    }
    obs::diag::WaiterSlot* slot = nullptr;
    {
      SpinGuard g(rec->lock);
      slot = rec->diag_slot;
      rec->diag_slot = nullptr;
    }
    if (slot != nullptr) {
      obs::diag::ReleaseWaiterSlot(slot);
    }
  }
};
thread_local ThreadExitGuard t_exit_guard;

bool GlobalLockModeFromEnv() {
  const char* v = std::getenv("TAOS_NUB_GLOBAL_LOCK");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}
}  // namespace

Nub::Nub() {
  global_lock_mode_.store(GlobalLockModeFromEnv());
}

void Nub::SetLockBackend(LockBackend b) {
  // The timer thread takes the wheel lock on every tick and record/object
  // locks during expiry, and cannot be joined; park it at its gate (where it
  // holds no SpinLock) for the duration of the switch.
  Timer* timer = Timer::InstanceIfStarted();
  if (timer != nullptr) {
    timer->PauseForBackendSwitch();
  }
  SpinLock::SetBackend(b);
  if (timer != nullptr) {
    timer->ResumeAfterBackendSwitch();
  }
}

ThreadRecord* Nub::CreateRecord() {
  auto rec = std::make_unique<ThreadRecord>();
  rec->id = next_thread_id_.fetch_add(1, std::memory_order_relaxed);
  ThreadRecord* raw = rec.get();
  {
    SpinGuard g(registry_lock_);
    registry_.push_back(std::move(rec));
  }
  return raw;
}

void Nub::AdoptRecord(ThreadRecord* rec) {
  TAOS_CHECK(current_ == nullptr || current_ == rec);
  current_ = rec;
  t_exit_guard.rec = rec;
}

ThreadRecord* Nub::RegisterCurrent() {
  current_ = Get().CreateRecord();
  t_exit_guard.rec = current_;
  return current_;
}

ThreadRecord* Nub::RecordFor(spec::ThreadId id) {
  SpinGuard g(registry_lock_);
  for (const auto& rec : registry_) {
    if (rec->id == id) {
      return rec.get();
    }
  }
  return nullptr;
}

}  // namespace taos
