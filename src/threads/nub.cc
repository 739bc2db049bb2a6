#include "src/threads/nub.h"

#include <cstdlib>
#include <cstring>

#include "src/base/check.h"
#include "src/threads/timer.h"

namespace taos {

namespace {
thread_local ThreadRecord* tls_record = nullptr;

bool GlobalLockModeFromEnv() {
  const char* v = std::getenv("TAOS_NUB_GLOBAL_LOCK");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}
}  // namespace

Nub::Nub() {
  global_lock_mode_.store(GlobalLockModeFromEnv());
}

Nub& Nub::Get() {
  static Nub* nub = new Nub();  // intentionally leaked; records must outlive
                                // any late thread exit
  return *nub;
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
  TAOS_CHECK(tls_record == nullptr || tls_record == rec);
  tls_record = rec;
}

ThreadRecord* Nub::Current() {
  if (tls_record == nullptr) {
    tls_record = CreateRecord();
  }
  return tls_record;
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
