// E4b — the readers-writer lock built from one Mutex and two Conditions
// (the paper's Broadcast example): throughput across read/write mixes and
// primitive families. Broadcast earns its keep exactly when a writer's
// release must resume many readers at once.

#include <benchmark/benchmark.h>

#include <thread>

#include "src/baseline/std_sync.h"
#include "src/threads/threads.h"
#include "src/workload/rwlock.h"

namespace {

using taos::workload::NativeRWLock;
using taos::workload::RunReadersWriters;
using taos::workload::RWLock;

template <typename LockT>
void RunRW(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  const int writers = static_cast<int>(state.range(1));
  // Core-count honesty: the mix always runs readers+writers threads, so on
  // a single-CPU host the throughput is scheduling noise, not reader
  // concurrency. Record num_cpus and refuse to report in that case.
  const unsigned num_cpus = std::thread::hardware_concurrency();
  state.counters["num_cpus"] = benchmark::Counter(
      static_cast<double>(num_cpus), benchmark::Counter::kAvgThreads);
  if (num_cpus <= 1 && readers + writers > 1) {
    state.SkipWithError(
        "1 CPU: reader/writer throughput would be scheduling noise");
    for (auto _ : state) {
    }
    return;
  }
  constexpr std::uint64_t kIters = 300;
  std::uint64_t ops = 0;
  std::uint64_t nanos = 0;
  for (auto _ : state) {
    LockT lock;
    auto r = RunReadersWriters(lock, readers, writers, kIters,
                               /*read_work=*/10, /*write_work=*/30);
    if (!r.invariant_ok) {
      state.SkipWithError("reader/writer invariant violated");
      return;
    }
    ops += r.reads + r.writes;
    nanos += r.nanos;
  }
  state.counters["ops_per_sec_wall"] =
      nanos == 0 ? 0.0
                 : static_cast<double>(ops) * 1e9 /
                       static_cast<double>(nanos);
}

void BM_TaosRWLock(benchmark::State& state) {
  RunRW<RWLock<taos::Mutex, taos::Condition>>(state);
}
// The real primitive (taos::ReaderWriterMutex): reader admission is one CAS
// on the shared word instead of a mutex-protected counter, and a writer's
// release wakes every queued reader directly rather than via Broadcast.
void BM_TaosNativeRWLock(benchmark::State& state) {
  RunRW<NativeRWLock>(state);
}
void BM_StdRWLock(benchmark::State& state) {
  RunRW<RWLock<taos::baseline::StdMutex, taos::baseline::StdCondition>>(
      state);
}

// {readers, writers}
BENCHMARK(BM_TaosRWLock)
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({2, 2})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_TaosNativeRWLock)
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({2, 2})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_StdRWLock)
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({2, 2})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("rwlock");
