// Unit tests for the Parker (src/waitq/parker.h): the one-permit
// park/unpark discipline, timed parks and spurious-wakeup absorption, on
// both backends.

#include "src/waitq/parker.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

namespace taos::waitq {
namespace {

using obs::Counter;
using obs::Snapshot;
using obs::Stats;

std::uint64_t Delta(const Stats& before, const Stats& after, Counter c) {
  return after.Count(c) - before.Count(c);
}

class ParkerBackendTest : public ::testing::TestWithParam<Parker::Backend> {};

TEST_P(ParkerBackendTest, PermitDepositedBeforeParkIsConsumed) {
  Parker p(GetParam());
  p.Unpark();
  p.Park();  // must not block: the permit was waiting
}

TEST_P(ParkerBackendTest, UnparkWakesParkedThread) {
  Parker p(GetParam());
  std::atomic<bool> woke{false};
  std::thread t([&] {
    p.Park();
    woke.store(true, std::memory_order_release);
  });
  // No handshake needed: whether Unpark lands before or after the Park
  // starts sleeping, the permit discipline delivers exactly one wakeup.
  p.Unpark();
  t.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST_P(ParkerBackendTest, PingPongHandsOffRepeatedly) {
  Parker ping(GetParam());
  Parker pong(GetParam());
  constexpr int kRounds = 10000;
  std::thread t([&] {
    for (int i = 0; i < kRounds; ++i) {
      ping.Park();
      pong.Unpark();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    ping.Unpark();
    pong.Park();
  }
  t.join();
}

// A spurious wakeup (the kernel or the C++ runtime waking the sleeper with
// no permit deposited) must put the thread back to sleep, never let Park
// return. SpuriousWakeForDebug pokes the underlying futex/condvar directly.
TEST_P(ParkerBackendTest, SpuriousWakeupsDoNotForgeAPermit) {
  Parker p(GetParam());
  const Counter waits = GetParam() == Parker::Backend::kFutex
                            ? Counter::kParkFutexWaits
                            : Counter::kParkCondvarWaits;
  std::atomic<bool> returned{false};
  const Stats before = Snapshot();
  std::thread t([&] {
    p.Park();
    returned.store(true, std::memory_order_release);
  });
  // Keep injecting until the sleeper has demonstrably slept at least three
  // times — i.e. it absorbed at least two spurious wakeups by re-checking
  // the permit word and going back down.
  for (int i = 0; i < 4000 && Delta(before, Snapshot(), waits) < 3; ++i) {
    p.SpuriousWakeForDebug();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_GE(Delta(before, Snapshot(), waits), 3u);
  EXPECT_FALSE(returned.load(std::memory_order_acquire))
      << "Park returned without a permit";
  p.Unpark();
  t.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

// Same discipline on the timed path: spurious wakeups neither end the wait
// early nor turn it into a timeout; the one real Unpark does.
TEST_P(ParkerBackendTest, SpuriousWakeupsDoNotEndATimedParkEarly) {
  Parker p(GetParam());
  std::atomic<int> outcome{-1};
  std::thread t([&] {
    outcome.store(p.ParkUntil(obs::NowNanos() + 2'000'000'000ull) ? 1 : 0,
                  std::memory_order_release);
  });
  for (int i = 0; i < 50; ++i) {
    p.SpuriousWakeForDebug();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(outcome.load(std::memory_order_acquire), -1)
      << "timed park ended on a spurious wakeup";
  p.Unpark();
  t.join();
  EXPECT_EQ(outcome.load(std::memory_order_acquire), 1);
}

// Regression for the CondvarPark ordering fix: the permit store must happen
// under mu_ (with the notify after), or an Unpark landing in the waiter's
// check-to-sleep window is published after the check but notifies before
// the sleep — a lost wakeup. Swept here by staggering the Unpark across
// that window a few thousand times; run on both backends (the futex word
// protocol has the same window between the kParked CAS and FUTEX_WAIT).
// A lost wakeup surfaces as ParkUntil timing out despite the Unpark.
TEST_P(ParkerBackendTest, UnparkInTheCheckToSleepWindowIsNeverLost) {
  Parker p(GetParam());
  constexpr int kRounds = 4000;
  std::atomic<int> completed{0};
  std::atomic<bool> all_notified{true};
  std::thread waiter([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (!p.ParkUntil(obs::NowNanos() + 10'000'000'000ull)) {
        all_notified.store(false, std::memory_order_relaxed);
      }
      completed.store(i + 1, std::memory_order_release);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    // Variable stagger: some Unparks land before the waiter reaches the
    // permit check, some inside the window, some after it is asleep.
    std::atomic<int> stagger{(i * 7) % 120};
    while (stagger.fetch_sub(1, std::memory_order_relaxed) > 0) {
    }
    if (i % 16 == 0) {
      std::this_thread::yield();
    }
    p.Unpark();
    // One permit at a time: the next Unpark only after this one is consumed.
    while (completed.load(std::memory_order_acquire) < i + 1) {
      std::this_thread::yield();
    }
  }
  waiter.join();
  EXPECT_TRUE(all_notified.load(std::memory_order_relaxed))
      << "an Unpark was lost in the check-to-sleep window";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ParkerBackendTest,
    ::testing::Values(Parker::Backend::kFutex, Parker::Backend::kCondvar),
    [](const ::testing::TestParamInfo<Parker::Backend>& backend) {
      return backend.param == Parker::Backend::kFutex ? "Futex" : "Condvar";
    });

}  // namespace
}  // namespace taos::waitq
