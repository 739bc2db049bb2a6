// A deliberately deadlocked process: two threads take two mutexes in
// opposite orders and block forever. The point is the watchdog — it must
// confirm the cycle (same members, same since_ns, two consecutive scans)
// and name both threads and both objects long before any test timeout.
//
// Exit codes (the ctest registration asserts 0):
//   0  watchdog reported exactly the planted cycle
//   1  guard timeout: the watchdog never fired
//   2  watchdog fired but named the wrong cycle
//
// The deadlocked threads are deliberately never joined: once the cycle is
// confirmed there is nothing left to unwind, so the process _Exits from the
// watchdog callback — which is exactly how a production watchdog hook would
// hand the diagnosis to a supervisor.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "src/obs/diag.h"
#include "src/obs/recorder.h"
#include "src/threads/threads.h"

namespace {

std::atomic<std::uint64_t> g_obj_a{0};
std::atomic<std::uint64_t> g_obj_b{0};

}  // namespace

int main() {
  using namespace std::chrono_literals;
  taos::obs::SetRecorderEnabled(true);  // the dump's event tail has content

  // Guard: if the watchdog misses, fail crisply instead of hanging until
  // the harness timeout.
  std::thread guard([] {
    std::this_thread::sleep_for(30s);
    std::fprintf(stderr, "FAIL: watchdog never confirmed the cycle\n");
    std::_Exit(1);
  });
  guard.detach();

  taos::Mutex a;
  taos::Mutex b;
  g_obj_a.store(a.id(), std::memory_order_relaxed);
  g_obj_b.store(b.id(), std::memory_order_relaxed);

  taos::obs::diag::Watchdog watchdog;
  taos::obs::diag::Watchdog::Options options;
  options.interval_ms = 25;
  options.stall_ms = 0;  // deadlock detection only
  options.on_deadlock = [](const std::string& dump,
                           const std::vector<taos::obs::diag::Cycle>& cycles) {
    std::fputs(dump.c_str(), stderr);
    if (cycles.size() != 1 || cycles[0].edges.size() != 2) {
      std::fprintf(stderr, "FAIL: expected one 2-thread cycle\n");
      std::_Exit(2);
    }
    std::set<std::uint64_t> objs;
    std::set<std::uint64_t> tids;
    for (const taos::obs::diag::BlockedEdge& e : cycles[0].edges) {
      objs.insert(e.obj);
      tids.insert(e.tid);
      if (e.kind != taos::obs::diag::WaitKind::kMutex || e.owner == 0) {
        std::fprintf(stderr, "FAIL: edge is not an owned mutex wait\n");
        std::_Exit(2);
      }
    }
    const std::set<std::uint64_t> want_objs = {
        g_obj_a.load(std::memory_order_relaxed),
        g_obj_b.load(std::memory_order_relaxed)};
    // Each edge must be owned by the other member: the exact cycle.
    const auto& edges = cycles[0].edges;
    const bool closed = edges[0].owner == edges[1].tid &&
                        edges[1].owner == edges[0].tid;
    if (objs != want_objs || tids.size() != 2 || !closed) {
      std::fprintf(stderr, "FAIL: cycle names the wrong threads/objects\n");
      std::_Exit(2);
    }
    std::fprintf(stderr, "OK: watchdog named the planted deadlock\n");
    std::_Exit(0);
  };
  watchdog.Start(options);

  // The classic lock-order inversion, rendezvoused so both threads hold
  // their first lock before either tries its second.
  std::atomic<int> holding{0};
  taos::Thread t1 = taos::Thread::Fork([&] {
    a.Acquire();
    holding.fetch_add(1, std::memory_order_acq_rel);
    while (holding.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    b.Acquire();  // never returns
  });
  taos::Thread t2 = taos::Thread::Fork([&] {
    b.Acquire();
    holding.fetch_add(1, std::memory_order_acq_rel);
    while (holding.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    a.Acquire();  // never returns
  });

  // Park the main thread; the watchdog callback is the only way out.
  for (;;) {
    std::this_thread::sleep_for(1s);
  }
}
