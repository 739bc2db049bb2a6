// E3 — contended mutex throughput versus thread count and critical-section
// length, across lock designs:
//
//   TaosMutex     test-and-set fast path + queue/park slow path (barging)
//   Semaphore     the identical mechanism behind P/V (E5 cross-check)
//   TicketSpin    FIFO pure spinning
//   StdMutex      the host's native mutex (futex-backed)
//
// google-benchmark's ->Threads(N) runs the loop body in N OS threads; the
// reported time is per-operation wall time. cs_work/outside_work sweep the
// critical-section length (DoWork units).

#include <benchmark/benchmark.h>

#include <thread>

#include "src/baseline/handoff_mutex.h"
#include "src/baseline/reed_kanodia.h"
#include "src/baseline/std_sync.h"
#include "src/baseline/ticket_lock.h"
#include "src/threads/threads.h"
#include "src/workload/work.h"

namespace {

class SemaphoreAsLock {
 public:
  void Acquire() { s_.P(); }
  void Release() { s_.V(); }

 private:
  taos::Semaphore s_;
};

// Core-count honesty: contention numbers only mean something when waiters
// can actually run concurrently with the holder. Every entry records
// num_cpus; multi-threaded entries on a single-CPU host are refused (a
// skipped entry with an error string — the honest datum for that shape).
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

taos::Mutex g_taos_mutex;
void BM_TaosMutex(benchmark::State& state) {
  ContendedLoop(state, g_taos_mutex);
  if (state.thread_index() == 0) {
    state.counters["slow_acquires"] =
        static_cast<double>(g_taos_mutex.slow_acquires());
    g_taos_mutex.ResetStats();
  }
}

SemaphoreAsLock g_semaphore_lock;
void BM_SemaphoreLock(benchmark::State& state) {
  ContendedLoop(state, g_semaphore_lock);
}

taos::baseline::TicketSpinMutex g_ticket;
void BM_TicketSpin(benchmark::State& state) { ContendedLoop(state, g_ticket); }

// The barging ablation: direct FIFO handoff (convoy-prone) vs the paper's
// retry-from-the-test-and-set design.
taos::baseline::HandoffMutex g_handoff;
void BM_HandoffMutex(benchmark::State& state) {
  ContendedLoop(state, g_handoff);
}

taos::baseline::StdMutex g_std_mutex;
void BM_StdMutex(benchmark::State& state) { ContendedLoop(state, g_std_mutex); }

// Reed-Kanodia mutual exclusion (ticket + eventcount): strict FIFO like the
// handoff mutex, but the queueing is the eventcount's, not the Nub's.
taos::baseline::EventcountMutex g_rk_mutex;
void BM_ReedKanodiaMutex(benchmark::State& state) {
  ContendedLoop(state, g_rk_mutex);
}

// The sharding A/B: disjoint thread pairs each hammer their own mutex, so no
// user-level contention crosses pairs — with per-object Nub locks the pairs'
// slow paths are fully independent, while TAOS_NUB_GLOBAL_LOCK=1 funnels
// every park/unpark through the paper's single spin-lock bit. The
// global_lock counter records which configuration a run measured.
constexpr int kPairPool = 8;
taos::Mutex g_pair_mutexes[kPairPool];
void BM_TaosMutexPairedObjects(benchmark::State& state) {
  taos::Mutex& m = g_pair_mutexes[(state.thread_index() / 2) % kPairPool];
  ContendedLoop(state, m);
  if (state.thread_index() == 0) {
    state.counters["global_lock"] =
        taos::Nub::Get().global_lock_mode() ? 1.0 : 0.0;
  }
}

// The spin-backoff A/B: the same contended loop over a raw Nub spin-lock,
// with bounded-exponential backoff on (the default) and off. The spin-lock
// feeds its iteration counts into the obs spin histograms either way, so the
// BENCH json records how much spinning each policy cost.
taos::SpinLock g_raw_spin_backoff;
void BM_RawSpinBackoff(benchmark::State& state) {
  struct AsLock {
    taos::SpinLock& s;
    void Acquire() { s.Acquire(); }
    void Release() { s.Release(); }
  } lock{g_raw_spin_backoff};
  ContendedLoop(state, lock);
}

taos::SpinLock g_raw_spin_no_backoff;
void BM_RawSpinNoBackoff(benchmark::State& state) {
  struct AsLock {
    taos::SpinLock& s;
    void Acquire() { s.Acquire(); }
    void Release() { s.Release(); }
  } lock{g_raw_spin_no_backoff};
  ContendedLoop(state, lock);
}

// Setup/Teardown run before any benchmark thread starts and after all have
// joined, so the process-wide switch never flips mid-measurement.
void DisableBackoff(const benchmark::State&) {
  taos::SpinLock::SetBackoffEnabled(false);
}
void RestoreBackoff(const benchmark::State&) {
  taos::SpinLock::SetBackoffEnabled(true);
}

void Shapes(benchmark::internal::Benchmark* b) {
  // {cs_work, outside_work}: short and long critical sections.
  for (auto shape : {std::pair<int, int>{5, 20}, {100, 20}}) {
    b->Args({shape.first, shape.second});
  }
  b->Threads(1)->Threads(2)->Threads(4)->Threads(8);
  b->UseRealTime();
}

void PairShapes(benchmark::internal::Benchmark* b) {
  b->Args({5, 20});
  b->Threads(2)->Threads(8)->Threads(16);
  b->UseRealTime();
}

BENCHMARK(BM_TaosMutex)->Apply(Shapes);
BENCHMARK(BM_RawSpinBackoff)->Apply(Shapes);
BENCHMARK(BM_RawSpinNoBackoff)
    ->Apply(Shapes)
    ->Setup(DisableBackoff)
    ->Teardown(RestoreBackoff);
BENCHMARK(BM_TaosMutexPairedObjects)->Apply(PairShapes);
BENCHMARK(BM_SemaphoreLock)->Apply(Shapes);
BENCHMARK(BM_TicketSpin)->Apply(Shapes);
BENCHMARK(BM_HandoffMutex)->Apply(Shapes);
BENCHMARK(BM_StdMutex)->Apply(Shapes);
BENCHMARK(BM_ReedKanodiaMutex)->Apply(Shapes);

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("contention");
