// E31 — lock-core A/B: TAS+backoff vs MCS vs CLH (TAOS_LOCK backends)
// under the same contended loop, across thread counts and critical-section
// lengths, plus the Mutex and ReaderWriterMutex slow paths riding on each
// core. Emits BENCH_locks.json.
//
// Honesty rules (see EXPERIMENTS.md E31): every entry records num_cpus, and
// multi-threaded entries REFUSE to report on a single-CPU host — spinning
// lock cores cannot contend for a cache line when the waiters and the
// holder time-share one core, so any number measured there is scheduling
// noise, not lock behaviour. The refusal is a skipped entry with an error
// string in the JSON, which is itself the honest datum.

#include <benchmark/benchmark.h>

#include <thread>

#include "src/base/spinlock.h"
#include "src/threads/threads.h"
#include "src/workload/rwlock.h"
#include "src/workload/work.h"

namespace {

// Records the core count on the entry and refuses contended claims on one
// CPU. Returns true when the benchmark must bail (after draining state).
bool RefuseContendedOn1Cpu(benchmark::State& state) {
  const unsigned n = std::thread::hardware_concurrency();
  state.counters["num_cpus"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kAvgThreads);
  if (state.threads() > 1 && n <= 1) {
    state.SkipWithError(
        "1 CPU: contended lock numbers would be scheduling noise");
    return true;
  }
  return false;
}

template <typename LockT>
void ContendedLoop(benchmark::State& state, LockT& lock) {
  if (RefuseContendedOn1Cpu(state)) {
    for (auto _ : state) {
    }
    return;
  }
  const std::uint64_t cs_work = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t outside = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t local = 0;
  for (auto _ : state) {
    lock.Acquire();
    local ^= taos::workload::DoWork(cs_work);
    lock.Release();
    local ^= taos::workload::DoWork(outside);
  }
  benchmark::DoNotOptimize(local);
}

// --- raw spin-lock cores (the substrate itself) ---

taos::SpinLock g_spin;

// Setup/Teardown run before any benchmark thread starts and after all have
// joined, so the process-wide backend switch only happens while every
// SpinLock in the process is free (the quiescence SetBackend requires).
void UseTas(const benchmark::State&) {
  taos::SpinLock::SetBackend(taos::LockBackend::kTas);
}
void UseMcs(const benchmark::State&) {
  taos::SpinLock::SetBackend(taos::LockBackend::kMcs);
}
void UseClh(const benchmark::State&) {
  taos::SpinLock::SetBackend(taos::LockBackend::kClh);
}
const taos::LockBackend g_env_backend = taos::SpinLock::backend();
void RestoreBackend(const benchmark::State&) {
  taos::SpinLock::SetBackend(g_env_backend);
}

void BM_SpinTas(benchmark::State& state) { ContendedLoop(state, g_spin); }
void BM_SpinMcs(benchmark::State& state) { ContendedLoop(state, g_spin); }
void BM_SpinClh(benchmark::State& state) { ContendedLoop(state, g_spin); }

// --- the Mutex slow path riding on each core ---

taos::Mutex g_mutex;
void MutexLoop(benchmark::State& state) {
  ContendedLoop(state, g_mutex);
  if (state.thread_index() == 0) {
    state.counters["slow_acquires"] =
        static_cast<double>(g_mutex.slow_acquires());
    g_mutex.ResetStats();
  }
}
void BM_MutexTas(benchmark::State& state) { MutexLoop(state); }
void BM_MutexMcs(benchmark::State& state) { MutexLoop(state); }
void BM_MutexClh(benchmark::State& state) { MutexLoop(state); }

// --- the ReaderWriterMutex on each core (read-mostly mix) ---

taos::ReaderWriterMutex g_rw;
void RwLoop(benchmark::State& state) {
  if (RefuseContendedOn1Cpu(state)) {
    for (auto _ : state) {
    }
    return;
  }
  const std::uint64_t cs_work = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t local = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (++i % 8 == 0) {
      taos::WriteLock wl(g_rw);
      local ^= taos::workload::DoWork(cs_work);
    } else {
      taos::ReadLock rl(g_rw);
      local ^= taos::workload::DoWork(cs_work);
    }
  }
  benchmark::DoNotOptimize(local);
}
void BM_RwMutexTas(benchmark::State& state) { RwLoop(state); }
void BM_RwMutexMcs(benchmark::State& state) { RwLoop(state); }
void BM_RwMutexClh(benchmark::State& state) { RwLoop(state); }

void Shapes(benchmark::internal::Benchmark* b) {
  // {cs_work, outside_work}: short and long critical sections.
  for (auto shape : {std::pair<int, int>{5, 20}, {100, 20}}) {
    b->Args({shape.first, shape.second});
  }
  b->Threads(1)->Threads(2)->Threads(4)->Threads(8);
  b->UseRealTime();
}

#define TAOS_LOCKS_BENCH(fn, setup)                                   \
  BENCHMARK(fn)->Apply(Shapes)->Setup(setup)->Teardown(RestoreBackend)

TAOS_LOCKS_BENCH(BM_SpinTas, UseTas);
TAOS_LOCKS_BENCH(BM_SpinMcs, UseMcs);
TAOS_LOCKS_BENCH(BM_SpinClh, UseClh);
TAOS_LOCKS_BENCH(BM_MutexTas, UseTas);
TAOS_LOCKS_BENCH(BM_MutexMcs, UseMcs);
TAOS_LOCKS_BENCH(BM_MutexClh, UseClh);
TAOS_LOCKS_BENCH(BM_RwMutexTas, UseTas);
TAOS_LOCKS_BENCH(BM_RwMutexMcs, UseMcs);
TAOS_LOCKS_BENCH(BM_RwMutexClh, UseClh);

#undef TAOS_LOCKS_BENCH

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("locks");
