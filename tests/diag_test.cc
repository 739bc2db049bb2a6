// The contention-diagnosis layer (src/obs/diag): seqlock slot publication
// and snapshots, cycle detection over the waits-for graph (pure), report
// formatting, live blocked-thread snapshots against the real runtime with
// owners read from the objects, the snapshot-versus-destroy lifetime rule,
// and the watchdog's stall and deadlock reports.
//
// The real-deadlock end-to-end check lives in diag_deadlock_fixture.cc (a
// deliberately hung process cannot share a gtest binary).

#include "src/obs/diag.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/threads/threads.h"

namespace taos {
namespace {

using namespace std::chrono_literals;
using obs::diag::BlockedEdge;
using obs::diag::Cycle;
using obs::diag::FindCycles;
using obs::diag::WaitKind;

BlockedEdge Edge(std::uint64_t tid, std::uint64_t obj, std::uint64_t owner,
                 WaitKind kind = WaitKind::kMutex) {
  BlockedEdge e;
  e.tid = tid;
  e.obj = obj;
  e.owner = owner;
  e.kind = kind;
  e.since_ns = 1000 * tid;
  return e;
}

// FindCycles requires edges sorted by tid (SnapshotBlocked's postcondition).
std::vector<BlockedEdge> Sorted(std::vector<BlockedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const BlockedEdge& a, const BlockedEdge& b) {
              return a.tid < b.tid;
            });
  return edges;
}

TEST(DiagFindCyclesTest, EmptyAndAcyclic) {
  EXPECT_TRUE(FindCycles({}).empty());
  // t1 waits for an object held by t2, but t2 is running: no cycle.
  EXPECT_TRUE(FindCycles(Sorted({Edge(1, 10, 2)})).empty());
  // A chain t1 -> t2 -> t3 with t3 running: still none.
  EXPECT_TRUE(
      FindCycles(Sorted({Edge(1, 10, 2), Edge(2, 11, 3)})).empty());
  // Owner unknown (semaphore-like) terminates the walk.
  EXPECT_TRUE(
      FindCycles(Sorted({Edge(1, 10, 0, WaitKind::kSemaphore)})).empty());
}

TEST(DiagFindCyclesTest, TwoThreadCycleReportedOnceFromSmallestTid) {
  const auto cycles =
      FindCycles(Sorted({Edge(2, 11, 1), Edge(1, 10, 2)}));
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].edges.size(), 2u);
  EXPECT_EQ(cycles[0].edges[0].tid, 1u);  // walk starts at the smallest
  EXPECT_EQ(cycles[0].edges[0].obj, 10u);
  EXPECT_EQ(cycles[0].edges[1].tid, 2u);
  EXPECT_EQ(cycles[0].edges[1].obj, 11u);
}

TEST(DiagFindCyclesTest, ThreeThreadCycleAndDisjointCycles) {
  // 1 -> 2 -> 3 -> 1, plus a separate 7 <-> 8.
  const auto cycles = FindCycles(Sorted({
      Edge(1, 10, 2),
      Edge(2, 11, 3),
      Edge(3, 12, 1),
      Edge(7, 20, 8),
      Edge(8, 21, 7),
  }));
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].edges.size(), 3u);
  EXPECT_EQ(cycles[0].edges[0].tid, 1u);
  EXPECT_EQ(cycles[1].edges.size(), 2u);
  EXPECT_EQ(cycles[1].edges[0].tid, 7u);
}

TEST(DiagFindCyclesTest, LassoTailDoesNotFabricateMembership) {
  // t5 leads into the 1 <-> 2 cycle but is not part of it.
  const auto cycles =
      FindCycles(Sorted({Edge(1, 10, 2), Edge(2, 11, 1), Edge(5, 12, 1)}));
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].edges.size(), 2u);
  for (const BlockedEdge& e : cycles[0].edges) {
    EXPECT_NE(e.tid, 5u);
  }
}

TEST(DiagReportTest, FormatNamesThreadsObjectsAndCycles) {
  const auto edges = Sorted({Edge(1, 10, 2), Edge(2, 11, 1)});
  const auto cycles = FindCycles(edges);
  const std::string report =
      obs::diag::FormatBlockedReport(edges, cycles, 5'000'000);
  EXPECT_NE(report.find("2 blocked thread(s)"), std::string::npos) << report;
  EXPECT_NE(report.find("thread 1 blocked on mutex obj 10"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("held by thread 2"), std::string::npos) << report;
  EXPECT_NE(report.find("DEADLOCK: cycle of 2 thread(s):"), std::string::npos)
      << report;
  EXPECT_NE(report.find("thread 2 waits for mutex obj 11 held by thread 1"),
            std::string::npos)
      << report;
}

TEST(DiagSlotTest, PublishSnapshotClearRoundTrip) {
  obs::diag::WaiterSlot* slot = obs::diag::RegisterWaiterSlot(990001);
  obs::diag::PublishBlocked(slot, WaitKind::kCondition, 777, 123456,
                            /*alertable=*/true, /*holder=*/nullptr);
  bool found = false;
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    if (e.tid == 990001) {
      found = true;
      EXPECT_EQ(e.kind, WaitKind::kCondition);
      EXPECT_EQ(e.obj, 777u);
      EXPECT_EQ(e.since_ns, 123456u);
      EXPECT_TRUE(e.alertable);
      EXPECT_EQ(e.owner, 0u);
    }
  }
  EXPECT_TRUE(found);
  // An owner-bearing kind: the owner is read through the holder word.
  std::atomic<std::uint32_t> holder{4242};
  obs::diag::PublishBlocked(slot, WaitKind::kMutex, 778, 123457,
                            /*alertable=*/false, &holder);
  found = false;
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    if (e.tid == 990001) {
      found = true;
      EXPECT_EQ(e.obj, 778u);
      EXPECT_EQ(e.owner, 4242u);
    }
  }
  EXPECT_TRUE(found);
  obs::diag::ClearBlocked(slot);
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    EXPECT_NE(e.tid, 990001u);
  }
}

// Polls snapshots until `tid` shows up blocked on `obj`; returns that edge
// (tid 0 if it never appears).
BlockedEdge AwaitEdge(spec::ThreadId tid, spec::ObjId obj) {
  for (int i = 0; i < 10000; ++i) {
    for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
      if (e.tid == tid && e.obj == obj) {
        return e;
      }
    }
    std::this_thread::sleep_for(100us);
  }
  return BlockedEdge{};
}

// Forks `body` and returns once the new thread has published its id.
Thread ForkAndGetId(std::function<void()> body, spec::ThreadId* tid) {
  std::atomic<spec::ThreadId> id{spec::kNil};
  Thread t = Thread::Fork([&id, body = std::move(body)] {
    id.store(Thread::Self().id(), std::memory_order_release);
    body();
  });
  while ((*tid = id.load(std::memory_order_acquire)) == spec::kNil) {
    std::this_thread::yield();
  }
  return t;
}

// A real blocked thread is visible in a snapshot, with the owner read from
// the mutex's holder word, and disappears after the grant.
TEST(DiagRuntimeTest, LiveBlockedEdgeNamesObjectAndOwner) {
  Mutex m;
  m.Acquire();
  const spec::ThreadId holder = Thread::Self().id();
  EXPECT_EQ(m.HolderForDebug(), holder);

  spec::ThreadId waiter = spec::kNil;
  Thread t = ForkAndGetId(
      [&] {
        m.Acquire();
        m.Release();
      },
      &waiter);

  const BlockedEdge e = AwaitEdge(waiter, m.id());
  ASSERT_EQ(e.tid, waiter) << "blocked edge never appeared";
  EXPECT_EQ(e.kind, WaitKind::kMutex);
  EXPECT_EQ(e.owner, holder);
  EXPECT_FALSE(e.alertable);
  EXPECT_GT(e.since_ns, 0u);

  m.Release();
  t.Join();
  for (const BlockedEdge& b : obs::diag::SnapshotBlocked()) {
    EXPECT_NE(b.tid, waiter);
  }
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
}

// Reader and writer waits on a ReaderWriterMutex both resolve to the
// exclusive holder.
TEST(DiagRuntimeTest, RwWaitersNameTheWriter) {
  ReaderWriterMutex rw;
  rw.Acquire();
  const spec::ThreadId writer = Thread::Self().id();

  spec::ThreadId reader = spec::kNil;
  Thread r = ForkAndGetId(
      [&] {
        rw.AcquireShared();
        rw.ReleaseShared();
      },
      &reader);
  spec::ThreadId writer2 = spec::kNil;
  Thread w = ForkAndGetId(
      [&] {
        rw.Acquire();
        rw.Release();
      },
      &writer2);

  const BlockedEdge re = AwaitEdge(reader, rw.id());
  ASSERT_EQ(re.tid, reader) << "reader edge never appeared";
  EXPECT_EQ(re.kind, WaitKind::kRwShared);
  EXPECT_EQ(re.owner, writer);
  const BlockedEdge we = AwaitEdge(writer2, rw.id());
  ASSERT_EQ(we.tid, writer2) << "writer edge never appeared";
  EXPECT_EQ(we.kind, WaitKind::kRwExclusive);
  EXPECT_EQ(we.owner, writer);

  rw.Release();
  r.Join();
  w.Join();
}

// A thread's waits-for slot goes back to a free list when the thread ends,
// so the registry holds at most as many slots as threads ever held one at
// once. Each batch of threads really parks (the snapshot shows every one
// blocked) before it is released and joined.
TEST(DiagSlotTest, EndedThreadsGiveTheirSlotsBack) {
  constexpr int kThreads = 1000;
  constexpr int kBatch = 8;
  const std::size_t before = obs::diag::WaiterSlotCountForDebug();
  for (int done = 0; done < kThreads; done += kBatch) {
    Event go;
    std::vector<Thread> batch;
    for (int i = 0; i < kBatch; ++i) {
      batch.push_back(Thread::Fork([&go] { go.Wait(); }));
    }
    for (;;) {
      int parked = 0;
      for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
        parked += e.obj == go.id() ? 1 : 0;
      }
      if (parked == kBatch) {
        break;
      }
      std::this_thread::yield();
    }
    go.Set();
    for (Thread& t : batch) {
      t.Join();
    }
  }
  // The peak is kBatch live workers plus this thread.
  EXPECT_LE(obs::diag::WaiterSlotCountForDebug(),
            std::max<std::size_t>(before, kBatch + 1));
}

std::atomic<std::uint64_t> g_probes{0};

// Snapshot probe for the lifetime test: holds each snapshot in flight
// between its slot pass and its owner reads, long enough for a round's
// release, join and delete to land inside that window.
void HoldSnapshotInFlight() {
  g_probes.fetch_add(1, std::memory_order_acq_rel);
  std::this_thread::sleep_for(100us);
}

// The lifetime rule (DESIGN.md §14): a snapshot dereferences the holder
// word of the object a thread is blocked on, so destroying that object
// right after the waiter leaves must wait out any snapshot still reading
// it. A snapshotter races heap objects that are blocked on, released,
// joined and deleted; ASan reports the use-after-free if the destructors
// stop draining.
TEST(DiagLifetimeTest, DestroyRacesSnapshots) {
  const obs::diag::SnapshotProbe saved_probe =
      obs::diag::SetSnapshotProbe(&HoldSnapshotInFlight);
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)obs::diag::SnapshotBlocked();
    }
  });

  // Blocks a forked thread on `acquire` and waits until a snapshot that
  // began after the thread parked is holding in its probe, then lets
  // `release` grant the thread and joins it.
  auto round = [](const std::function<void()>& acquire,
                  const std::function<void()>& release) {
    std::atomic<ThreadRecord*> rec{nullptr};
    Thread t = Thread::Fork([&] {
      rec.store(Thread::Self().rec, std::memory_order_release);
      acquire();
    });
    ThreadRecord* r;
    while ((r = rec.load(std::memory_order_acquire)) == nullptr) {
      std::this_thread::yield();
    }
    while (r->parks.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    // The next probe may belong to a pass that began before the park; the
    // one after it cannot.
    const std::uint64_t p0 = g_probes.load(std::memory_order_acquire);
    while (g_probes.load(std::memory_order_acquire) < p0 + 2) {
      std::this_thread::yield();
    }
    release();
    t.Join();
  };

  constexpr int kRounds = 2000;
  for (int i = 0; i < kRounds; ++i) {
    auto* m = new Mutex;
    m->Acquire();
    round([m] { m->Acquire(); m->Release(); }, [m] { m->Release(); });
    delete m;

    auto* rw = new ReaderWriterMutex;
    rw->Acquire();
    if (i % 2 == 0) {
      round([rw] { rw->AcquireShared(); rw->ReleaseShared(); },
            [rw] { rw->Release(); });
    } else {
      round([rw] { rw->Acquire(); rw->Release(); }, [rw] { rw->Release(); });
    }
    delete rw;
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  obs::diag::SetSnapshotProbe(saved_probe);
}

// The watchdog flags a long-blocked thread as a stall and dumps the edge
// (no cycle required), including the flight-recorder tail markers.
TEST(DiagWatchdogTest, StallDumpNamesTheBlockedThread) {
  Mutex m;
  m.Acquire();
  const spec::ThreadId holder = Thread::Self().id();
  std::atomic<bool> started{false};
  Thread t = Thread::Fork([&] {
    started.store(true, std::memory_order_release);
    m.Acquire();
    m.Release();
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(20ms);  // let the waiter publish and park

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::diag::Watchdog watchdog;
  obs::diag::Watchdog::Options options;
  options.interval_ms = 10;
  options.stall_ms = 5;  // everything parked by now counts as stalled
  options.out = out;
  watchdog.Start(options);
  while (watchdog.scans() < 3) {
    std::this_thread::sleep_for(5ms);
  }
  watchdog.Stop();

  m.Release();
  t.Join();

  std::rewind(out);
  std::string dump;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) {
    dump.append(buf, n);
  }
  std::fclose(out);
  EXPECT_NE(dump.find("taos waits-for snapshot"), std::string::npos) << dump;
  EXPECT_NE(dump.find("blocked on mutex obj"), std::string::npos) << dump;
  EXPECT_NE(dump.find("(held by thread " + std::to_string(holder) + ")"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("flight-recorder events"), std::string::npos) << dump;
}

// A planted exclusive/exclusive lock-order inversion across two
// ReaderWriterMutexes is confirmed and named: both threads, both objects,
// each edge owned by the other thread. The second thread's acquire is
// timed and retried until the watchdog has fired, so the cycle then breaks
// itself and the test can join.
TEST(DiagWatchdogTest, RwMutexInversionNamesBothOwners) {
  ReaderWriterMutex a;
  ReaderWriterMutex b;
  std::mutex mu;
  std::vector<Cycle> reported;
  std::atomic<bool> fired{false};

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::diag::Watchdog watchdog;
  obs::diag::Watchdog::Options options;
  options.interval_ms = 10;
  options.stall_ms = 0;  // deadlock detection only
  options.out = out;
  options.on_deadlock = [&](const std::string&,
                            const std::vector<Cycle>& cycles) {
    std::lock_guard<std::mutex> g(mu);
    reported = cycles;
    fired.store(true, std::memory_order_release);
  };
  watchdog.Start(options);

  std::atomic<int> holding{0};
  auto rendezvous = [&holding] {
    holding.fetch_add(1, std::memory_order_acq_rel);
    while (holding.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
  };
  spec::ThreadId t1 = spec::kNil;
  Thread th1 = ForkAndGetId(
      [&] {
        a.Acquire();
        rendezvous();
        b.Acquire();  // granted once the second thread gives b up
        b.Release();
        a.Release();
      },
      &t1);
  spec::ThreadId t2 = spec::kNil;
  Thread th2 = ForkAndGetId(
      [&] {
        b.Acquire();
        rendezvous();
        for (int i = 0; i < 50 && !fired.load(std::memory_order_acquire);
             ++i) {
          EXPECT_EQ(a.AcquireFor(200ms), WaitResult::kTimeout);
        }
        b.Release();
      },
      &t2);
  th2.Join();
  th1.Join();
  watchdog.Stop();
  std::fclose(out);

  ASSERT_TRUE(fired.load(std::memory_order_acquire))
      << "watchdog never confirmed the inversion";
  std::lock_guard<std::mutex> g(mu);
  ASSERT_EQ(reported.size(), 1u);
  ASSERT_EQ(reported[0].edges.size(), 2u);
  for (const BlockedEdge& e : reported[0].edges) {
    EXPECT_EQ(e.kind, WaitKind::kRwExclusive);
    if (e.tid == t1) {
      EXPECT_EQ(e.obj, b.id());
      EXPECT_EQ(e.owner, t2);
    } else {
      EXPECT_EQ(e.tid, t2);
      EXPECT_EQ(e.obj, a.id());
      EXPECT_EQ(e.owner, t1);
    }
  }
}

// Watchdog lifecycle: restartable, stop is idempotent, scans advance.
TEST(DiagWatchdogTest, StartStopRestart) {
  obs::diag::Watchdog watchdog;
  EXPECT_FALSE(watchdog.running());
  watchdog.Stop();  // no-op
  obs::diag::Watchdog::Options options;
  options.interval_ms = 5;
  options.stall_ms = 0;  // never stall-dump
  watchdog.Start(options);
  EXPECT_TRUE(watchdog.running());
  while (watchdog.scans() < 2) {
    std::this_thread::sleep_for(2ms);
  }
  watchdog.Stop();
  EXPECT_FALSE(watchdog.running());
  const std::uint64_t scans = watchdog.scans();
  watchdog.Start(options);
  while (watchdog.scans() < scans + 2) {
    std::this_thread::sleep_for(2ms);
  }
  watchdog.Stop();
}

}  // namespace
}  // namespace taos
