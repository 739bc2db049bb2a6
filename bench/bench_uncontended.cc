// E1 — the paper's headline number: "an Acquire-Release pair executes a
// total of 5 instructions, taking 10 microseconds on a MicroVAX II. This
// code is compiled entirely in-line."
//
// Series reported:
//   AcquireRelease      the user-code pair, no contention (never enters Nub)
//   LockClause          the LOCK sugar (RAII guard)
//   TryAcquireRelease   the single-attempt variant
//   StdMutexPair        std::mutex baseline (multi-threaded process)
//   RawSpinLockPair     the Nub's own spin-lock bit, for the floor
//   TicketLockPair      FIFO ticket lock baseline
//
// The `nub_entries` counter is exported to prove the fast path held: it must
// stay 0 for the whole run (the modern analogue of "5 instructions in-line"
// is "two atomic RMWs, zero kernel-layer entries").

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/base/spinlock.h"
#include "src/baseline/ticket_lock.h"
#include "src/threads/threads.h"

namespace {

void BM_AcquireRelease(benchmark::State& state) {
  taos::Mutex m;
  const std::uint64_t nub_before =
      taos::Nub::Get().nub_entries.load(std::memory_order_relaxed);
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
  state.counters["nub_entries"] = static_cast<double>(
      taos::Nub::Get().nub_entries.load(std::memory_order_relaxed) -
      nub_before);
}
BENCHMARK(BM_AcquireRelease);

void BM_LockClause(benchmark::State& state) {
  taos::Mutex m;
  for (auto _ : state) {
    taos::Lock lock(m);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_LockClause);

void BM_TryAcquireRelease(benchmark::State& state) {
  taos::Mutex m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.TryAcquire());
    m.Release();
  }
}
BENCHMARK(BM_TryAcquireRelease);

// glibc's pthread_mutex_lock skips its atomic operations while the process
// has one thread, which would make this row a floor no threads library can
// meet. An idle second thread, alive for the whole row, puts it on the
// atomic path every multi-threaded program takes.
void BM_StdMutexPair(benchmark::State& state) {
  std::mutex m;
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  bool done = false;
  std::thread idle([&] {
    std::unique_lock<std::mutex> lk(idle_mu);
    idle_cv.wait(lk, [&] { return done; });
  });
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
  {
    std::lock_guard<std::mutex> lk(idle_mu);
    done = true;
  }
  idle_cv.notify_one();
  idle.join();
}
BENCHMARK(BM_StdMutexPair);

void BM_RawSpinLockPair(benchmark::State& state) {
  taos::SpinLock s;
  for (auto _ : state) {
    s.Acquire();
    s.Release();
  }
}
BENCHMARK(BM_RawSpinLockPair);

void BM_TicketLockPair(benchmark::State& state) {
  taos::baseline::TicketSpinMutex m;
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
}
BENCHMARK(BM_TicketLockPair);

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("uncontended");
