// FIFO-fairness regression tests for the Nub's wait queues.
//
// The intrusive queues resume waiters in enqueue order, so with no awake
// competitors a chain of handoffs must grant in arrival order. (Once
// bargers are awake there is no fairness promise — Report 20's mutex "does
// not guarantee fairness" — so these scenarios keep every competitor
// asleep.)
//
// Each scenario serializes arrivals: waiter i is forked only after waiter
// i-1 has parked (its ThreadRecord::parks count went to 1), so the claim
// order — and thus the expected grant order — is exactly 0, 1, 2, ...

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/alerted.h"
#include "src/threads/threads.h"

namespace taos {
namespace {

void AwaitParked(const Thread& t) {
  while (t.Handle().rec->parks.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
}

// N waiters blocked on one mutex in a known arrival order; the holder
// releases and each waiter releases in turn. With every competitor asleep,
// the grant chain must follow arrival order.
TEST(FairnessTest, MutexHandoffsFollowArrivalOrder) {
  constexpr int kWaiters = 8;
  Mutex m;
  std::vector<int> grant_order;  // guarded by m

  m.Acquire();
  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&m, &grant_order, i] {
      m.Acquire();
      grant_order.push_back(i);
      m.Release();
    }));
    // Serialize arrivals: the next waiter may not even fork until this one
    // is parked (and therefore enqueued) on m.
    AwaitParked(waiters.back());
  }

  m.Release();
  for (Thread& t : waiters) {
    t.Join();
  }

  ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(grant_order[i], i) << "granted out of arrival order";
  }
}

// N waiters in AlertWait on one condition; the middle one is alerted (Alert
// unlinks it from the condition's queue), then signals are delivered one at
// a time. The alerted waiter must raise without consuming a signal, and the
// signals must reach the remaining waiters in arrival order.
TEST(FairnessTest, SignalsSkipAlertedWaiterInArrivalOrder) {
  constexpr int kWaiters = 5;
  constexpr int kAlerted = 2;
  Mutex m;
  Condition c;
  std::vector<int> grant_order;             // guarded by m
  std::atomic<bool> raised[kWaiters] = {};  // one flag per waiter

  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&, i] {
      m.Acquire();
      try {
        AlertWait(m, c);
        grant_order.push_back(i);
      } catch (const Alerted&) {
        raised[i].store(true, std::memory_order_release);
      }
      m.Release();
    }));
    AwaitParked(waiters.back());
  }

  Alert(waiters[kAlerted].Handle());
  waiters[kAlerted].Join();
  EXPECT_TRUE(raised[kAlerted].load(std::memory_order_acquire));

  for (int delivered = 1; delivered < kWaiters; ++delivered) {
    c.Signal();
    // Each signal wakes exactly one waiter; wait for it to record itself so
    // the next signal finds a quiet queue (no awake competitors).
    for (;;) {
      m.Acquire();
      const std::size_t n = grant_order.size();
      m.Release();
      if (n == static_cast<std::size_t>(delivered)) {
        break;
      }
      std::this_thread::yield();
    }
  }
  for (Thread& t : waiters) {
    if (t.Joinable()) {  // the alerted waiter was already joined
      t.Join();
    }
  }

  ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(kWaiters - 1));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(raised[i].load(std::memory_order_acquire), i == kAlerted);
  }
  std::vector<int> expected;
  for (int i = 0; i < kWaiters; ++i) {
    if (i != kAlerted) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(grant_order, expected) << "signals strayed from arrival order";
}

}  // namespace
}  // namespace taos
