// taos::ReaderWriterMutex: the two-layer readers-writer primitive. Spec
// conformance of the traced paths lives in threads_conformance_test; this
// suite pins the runtime behaviour: admission rules, the wakeup policy
// (exclusive release drains all readers + one writer; last reader out wakes
// a writer), timed grants racing deadlines, and the workload harness
// invariant.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/threads/threads.h"
#include "src/workload/rwlock.h"

namespace taos {
namespace {

using namespace std::chrono_literals;

void AwaitParked(const Thread& t) {
  while (t.Handle().rec->parks.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
}

TEST(RwMutexTest, UncontendedModes) {
  ReaderWriterMutex rw;
  rw.Acquire();
  EXPECT_EQ(rw.HolderForDebug(), Thread::Self().id());
  EXPECT_FALSE(rw.TryAcquire());
  EXPECT_FALSE(rw.TryAcquireShared());
  rw.Release();

  rw.AcquireShared();
  EXPECT_EQ(rw.ReadersForDebug(), 1u);
  EXPECT_FALSE(rw.TryAcquire());       // readers exclude writers...
  EXPECT_TRUE(rw.TryAcquireShared());  // ...but admit more readers
  EXPECT_EQ(rw.ReadersForDebug(), 2u);
  rw.ReleaseShared();
  rw.ReleaseShared();
  EXPECT_EQ(rw.ReadersForDebug(), 0u);

  EXPECT_TRUE(rw.TryAcquire());
  rw.Release();
}

// Readers genuinely overlap: all of them must be inside their sections at
// one moment (a mutex in reader's clothing would deadlock this test).
TEST(RwMutexTest, ReadersOverlap) {
  constexpr int kReaders = 4;
  ReaderWriterMutex rw;
  std::atomic<int> inside{0};
  std::vector<Thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(Thread::Fork([&] {
      ReadLock rl(rw);
      inside.fetch_add(1, std::memory_order_acq_rel);
      // Hold until every reader has arrived; with any pair serialized this
      // spins forever and the test times out.
      while (inside.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
    }));
  }
  for (Thread& t : readers) {
    t.Join();
  }
  EXPECT_EQ(inside.load(std::memory_order_relaxed), kReaders);
  EXPECT_EQ(rw.ReadersForDebug(), 0u);
}

// Mixed readers and writers over a shared variable: writers see and leave
// consistent state, readers never observe a torn update.
TEST(RwMutexTest, WritersExcludeEveryone) {
  constexpr int kThreads = 6;
  const int iters = 200;
  ReaderWriterMutex rw;
  // Two copies a writer updates non-atomically; a reader under the lock
  // must always see them equal.
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::atomic<int> torn{0};
  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&, t] {
      for (int i = 0; i < iters; ++i) {
        if ((t + i) % 3 == 0) {
          WriteLock wl(rw);
          ++a;
          std::this_thread::yield();  // widen any would-be race
          ++b;
        } else {
          ReadLock rl(rw);
          if (a != b) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_EQ(torn.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(a, b);
}

// The wakeup policy, reader half: an exclusive release must wake every
// queued reader at once (not one per subsequent release, as a mutex-like
// chain would).
TEST(RwMutexTest, ExclusiveReleaseDrainsAllQueuedReaders) {
  constexpr int kReaders = 4;
  ReaderWriterMutex rw;
  std::atomic<int> admitted{0};
  rw.Acquire();
  std::vector<Thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(Thread::Fork([&] {
      ReadLock rl(rw);
      admitted.fetch_add(1, std::memory_order_acq_rel);
      // Wait for all: only a drain-all release admits everyone while this
      // reader still holds its shared mode.
      while (admitted.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
    }));
    AwaitParked(readers.back());
  }
  rw.Release();  // one release, kReaders wakeups
  for (Thread& t : readers) {
    t.Join();
  }
  EXPECT_EQ(admitted.load(std::memory_order_relaxed), kReaders);
}

// The wakeup policy, writer half: the LAST reader out wakes the queued
// writer (earlier releases must not).
TEST(RwMutexTest, LastReaderWakesQueuedWriter) {
  ReaderWriterMutex rw;
  std::atomic<bool> wrote{false};
  std::atomic<bool> go{false};
  rw.AcquireShared();
  Thread reader = Thread::Fork([&] {
    ReadLock rl(rw);
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (rw.ReadersForDebug() < 2u) {
    std::this_thread::yield();
  }

  Thread writer = Thread::Fork([&] {
    rw.Acquire();
    wrote.store(true, std::memory_order_release);
    rw.Release();
  });
  AwaitParked(writer);
  EXPECT_FALSE(wrote.load(std::memory_order_acquire));
  rw.ReleaseShared();  // count 2 -> 1: the second reader still excludes
  EXPECT_FALSE(wrote.load(std::memory_order_acquire));
  go.store(true, std::memory_order_release);  // count 1 -> 0 wakes the writer
  writer.Join();
  reader.Join();
  EXPECT_TRUE(wrote.load(std::memory_order_acquire));
}

TEST(RwMutexTest, TimedAcquireTimesOutAgainstReaderAndSatisfies) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  EXPECT_EQ(rw.AcquireFor(2ms), WaitResult::kTimeout);
  EXPECT_EQ(rw.AcquireFor(0ns), WaitResult::kTimeout);
  rw.ReleaseShared();
  EXPECT_EQ(rw.AcquireFor(2ms), WaitResult::kSatisfied);
  rw.Release();
}

TEST(RwMutexTest, TimedSharedTimesOutAgainstWriterAndSatisfies) {
  ReaderWriterMutex rw;
  rw.Acquire();
  EXPECT_EQ(rw.AcquireSharedFor(2ms), WaitResult::kTimeout);
  EXPECT_EQ(rw.AcquireSharedFor(0ns), WaitResult::kTimeout);
  rw.Release();
  EXPECT_EQ(rw.AcquireSharedFor(2ms), WaitResult::kSatisfied);
  rw.ReleaseShared();
}

// A grant racing the deadline is kept: the writer releases just as the
// timed waiter's deadline approaches, and a satisfied result must mean a
// real hold (released afterwards without dying).
TEST(RwMutexTest, TimedGrantRacingDeadlineIsKept) {
  ReaderWriterMutex rw;
  for (int i = 0; i < 20; ++i) {
    rw.Acquire();
    Thread waiter = Thread::Fork([&] {
      if (rw.AcquireSharedFor(std::chrono::microseconds(50 + 25 * (i % 4))) ==
          WaitResult::kSatisfied) {
        rw.ReleaseShared();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(40));
    rw.Release();
    waiter.Join();
  }
  EXPECT_TRUE(rw.TryAcquire());  // nothing leaked a hold
  rw.Release();
}

TEST(RwMutexTest, StatsSplitFastFromSlow) {
  ReaderWriterMutex rw;
  rw.ResetStats();
  rw.AcquireShared();
  rw.ReleaseShared();
  rw.Acquire();
  rw.Release();
  EXPECT_EQ(rw.fast_acquires(), 2u);
  EXPECT_EQ(rw.slow_acquires(), 0u);

  rw.Acquire();
  Thread waiter = Thread::Fork([&] {
    rw.AcquireShared();
    rw.ReleaseShared();
  });
  AwaitParked(waiter);
  rw.Release();
  waiter.Join();
  EXPECT_GE(rw.slow_acquires(), 1u);
}

// The workload harness over the real primitive: the reader/writer invariant
// (never a writer with readers, never two writers) holds under the mixed
// load the E4b benchmark measures.
TEST(RwMutexTest, WorkloadHarnessInvariant) {
  workload::NativeRWLock lock;
  auto r = workload::RunReadersWriters(lock, /*readers=*/3, /*writers=*/2,
                                       /*iters=*/150, /*read_work=*/5,
                                       /*write_work=*/10);
  EXPECT_TRUE(r.invariant_ok);
  EXPECT_EQ(r.writes, 2u * 150u);
}

}  // namespace
}  // namespace taos
