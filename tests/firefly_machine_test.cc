// The simulated Firefly: determinism, scheduling, time slicing, priorities,
// deadlock detection, teardown of stuck fibers, and the fiber substrate
// (coroutines on the driver's thread, guarded stacks, per-fiber exception
// state).

#include "src/firefly/machine.h"

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/firefly/sync.h"

namespace taos::firefly {
namespace {

TEST(MachineTest, RunsSingleFiberToCompletion) {
  Machine m;
  int x = 0;
  m.Fork([&x, &m] {
    m.Step();
    x = 7;
  });
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(x, 7);
}

TEST(MachineTest, RunsManyFibers) {
  Machine m;
  int sum = 0;
  for (int i = 1; i <= 10; ++i) {
    m.Fork([&sum, &m, i] {
      m.Step();
      sum += i;  // steps serialize; no torn updates possible
      m.Step();
    });
  }
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sum, 55);
}

TEST(MachineTest, DeterministicForFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    MachineConfig cfg;
    cfg.seed = seed;
    Machine m(cfg);
    std::string order;
    for (char c : {'a', 'b', 'c'}) {
      m.Fork([&order, &m, c] {
        for (int i = 0; i < 5; ++i) {
          m.Step();
          order.push_back(c);
        }
      });
    }
    RunResult r = m.Run();
    EXPECT_TRUE(r.completed);
    return order + "#" + std::to_string(r.steps);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_EQ(run_once(7), run_once(7));
  // Different seeds explore different interleavings (with 15 interleaved
  // steps a collision is effectively impossible).
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(MachineTest, CpuCountBoundsParallelOccupancy) {
  MachineConfig cfg;
  cfg.cpus = 1;
  Machine m(cfg);
  // With one processor and no time slicing, dispatch is FIFO and each fiber
  // runs to completion before the next starts.
  std::string order;
  for (char c : {'x', 'y'}) {
    m.Fork([&order, &m, c] {
      for (int i = 0; i < 3; ++i) {
        m.Step();
        order.push_back(c);
      }
    });
  }
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, "xxxyyy");
}

TEST(MachineTest, TimeSlicePreempts) {
  MachineConfig cfg;
  cfg.cpus = 1;
  cfg.time_slice = 4;
  Machine m(cfg);
  std::string order;
  for (char c : {'x', 'y'}) {
    m.Fork([&order, &m, c] {
      for (int i = 0; i < 8; ++i) {
        m.Step();
        order.push_back(c);
      }
    });
  }
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(m.preemptions(), 0u);
  // Both fibers made progress before either finished.
  EXPECT_LT(order.find('y'), order.rfind('x'));
}

TEST(MachineTest, PriorityDispatchPrefersHigher) {
  MachineConfig cfg;
  cfg.cpus = 1;
  Machine m(cfg);
  std::string order;
  m.Fork(
      [&order, &m] {
        m.Step();
        order.push_back('l');
      },
      /*priority=*/0, "low");
  m.Fork(
      [&order, &m] {
        m.Step();
        order.push_back('h');
      },
      /*priority=*/5, "high");
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, "hl");
}

TEST(MachineTest, DetectsDeadlock) {
  Machine m;
  Semaphore never(m, /*initially_available=*/false);
  m.Fork([&never] { never.P(); }, 0, "stuck");
  RunResult r = m.Run();
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlock);
  ASSERT_EQ(r.stuck_fibers.size(), 1u);
  EXPECT_EQ(r.stuck_fibers[0], "stuck");
  EXPECT_TRUE(m.Aborted());
  // Machine teardown must reap the stuck fiber without hanging (covered by
  // this test finishing at all).
}

TEST(MachineTest, TeardownUnwindsFibersHoldingLocks) {
  auto run = [] {
    Machine m;
    Mutex mu(m);
    Semaphore never(m, /*initially_available=*/false);
    m.Fork([&] {
      Lock lock(mu);  // held across the block — unwound at teardown
      never.P();
    });
    RunResult r = m.Run();
    EXPECT_TRUE(r.deadlock);
  };
  EXPECT_NO_FATAL_FAILURE(run());
}

TEST(MachineTest, StepLimitStopsLivelock) {
  MachineConfig cfg;
  cfg.max_steps = 500;
  Machine m(cfg);
  m.Fork([&m] {
    for (;;) {
      m.Step();  // spins forever
    }
  });
  RunResult r = m.Run();
  EXPECT_TRUE(r.hit_step_limit);
  EXPECT_FALSE(r.completed);
}

TEST(MachineTest, ForkFromInsideAFiber) {
  Machine m;
  constexpr int kChildren = 64;  // grows the fiber table under live fibers
  int children_ran = 0;
  m.Fork([&m, &children_ran] {
    for (int i = 0; i < kChildren; ++i) {
      m.Step();
      m.Fork([&children_ran, &m] {
        m.Step();
        ++children_ran;
      });
    }
  });
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(children_ran, kChildren);
}

TEST(MachineTest, MigrationsTracked) {
  // With preemption on a 2-CPU machine, fibers rotate through the ready
  // pool and land on whichever processor is free — the paper's "the
  // scheduler is free to move it from one processor to another".
  MachineConfig cfg;
  cfg.cpus = 2;
  cfg.time_slice = 3;
  cfg.seed = 5;
  Machine m(cfg);
  for (int f = 0; f < 4; ++f) {
    m.Fork([&m] {
      for (int i = 0; i < 40; ++i) {
        m.Step();
      }
    });
  }
  EXPECT_TRUE(m.Run().completed);
  EXPECT_GT(m.preemptions(), 0u);
  EXPECT_GT(m.migrations(), 0u);
}

TEST(MachineTest, SpinContentionCounted) {
  MachineConfig cfg;
  cfg.cpus = 3;
  cfg.seed = 2;
  Machine m(cfg);
  Mutex mu(m);
  // Contended mutexes force concurrent Nub entries, hence spin-lock
  // contention.
  for (int f = 0; f < 3; ++f) {
    m.Fork([&] {
      for (int i = 0; i < 30; ++i) {
        mu.Acquire();
        m.Step();
        mu.Release();
      }
    });
  }
  EXPECT_TRUE(m.Run().completed);
  EXPECT_GT(m.spin_contentions(), 0u);
}

TEST(MachineTest, FiberIdsAreDense) {
  Machine m;
  FiberHandle a = m.Fork([] {});
  FiberHandle b = m.Fork([] {});
  EXPECT_EQ(a.id(), 1u);
  EXPECT_EQ(b.id(), 2u);
  EXPECT_TRUE(m.Run().completed);
}

TEST(MachineTest, FiberBodiesRunOnTheDriversThread) {
  Machine m;
  const std::thread::id driver = std::this_thread::get_id();
  std::thread::id seen[2];
  for (std::thread::id& id : seen) {
    m.Fork([&m, &id] {
      m.Step();
      id = std::this_thread::get_id();
    });
  }
  EXPECT_TRUE(m.Run().completed);
  EXPECT_EQ(seen[0], driver);
  EXPECT_EQ(seen[1], driver);
}

struct Sentinel {
  int* destroyed;
  ~Sentinel() { ++*destroyed; }
};

TEST(MachineTest, StragglerUnwindDestroysFrameOnce) {
  int destroyed = 0;
  {
    Machine m;
    Semaphore never(m, /*initially_available=*/false);
    m.Fork([&never, &destroyed] {
      Sentinel s{&destroyed};
      never.P();
    });
    RunResult r = m.Run();
    EXPECT_TRUE(r.deadlock);
    // Run() unwinds the stuck fiber before returning, while `never` lives.
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(MachineTest, MachineDestroyedWithoutRunNeverStartsItsFibers) {
  int ran = 0;
  {
    Machine m;
    m.Fork([&ran] { ++ran; });
    m.Fork([&ran] { ++ran; });
  }
  EXPECT_EQ(ran, 0);
}

TEST(MachineTest, CatchHandlersInDifferentFibersInterleave) {
  // Each fiber steps while inside its own catch handler, so the handlers
  // overlap in every order the seeds pick. A rethrow must find the
  // fiber's own exception, not whichever the other fiber caught last.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MachineConfig cfg;
    cfg.seed = seed;
    Machine m(cfg);
    std::string rethrown[2];
    for (int i = 0; i < 2; ++i) {
      m.Fork([&m, &rethrown, i] {
        m.Step();
        try {
          throw std::runtime_error(i == 0 ? "a" : "b");
        } catch (const std::runtime_error&) {
          for (int k = 0; k < 3 + i; ++k) {
            m.Step();
          }
          try {
            throw;
          } catch (const std::runtime_error& again) {
            rethrown[i] = again.what();
          }
          m.Step();
        }
      });
    }
    EXPECT_TRUE(m.Run().completed);
    EXPECT_EQ(rethrown[0], "a") << "seed " << seed;
    EXPECT_EQ(rethrown[1], "b") << "seed " << seed;
  }
}

#if !defined(__SANITIZE_THREAD__)
// Bounds of the overflowing fiber's guard page, for the SIGSEGV handler.
const char* guard_lo = nullptr;
const char* guard_hi = nullptr;

void ReportGuardFault(int, siginfo_t* info, void*) {
  const char* addr = static_cast<const char*>(info->si_addr);
  if (addr >= guard_lo && addr < guard_hi) {
    static const char kMsg[] = "fault in the guard page\n";
    (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
    _exit(3);
  }
  _exit(4);
}

// Out of line, so each frame is small and the overflow cannot step over the
// one-page guard.
[[gnu::noinline]] std::uint64_t Recurse(std::uint64_t depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  if (depth == UINT64_MAX) {
    return 0;
  }
  return Recurse(depth + 1) + static_cast<std::uint64_t>(frame[0]);
}

void OverflowAFiberStack() {
  // The handler runs on its own stack: the faulting one is exhausted.
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = &ReportGuardFault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);

  Machine m;
  m.Fork([] {
    const char* bottom =
        static_cast<const char*>(Machine::Self()->stack.bottom());
    guard_lo = bottom - sysconf(_SC_PAGESIZE);
    guard_hi = bottom;
    Recurse(0);
  });
  m.Run();
}

TEST(MachineDeathTest, StackOverflowFaultsOnTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(OverflowAFiberStack(), ::testing::ExitedWithCode(3),
              "fault in the guard page");
}
#endif  // !__SANITIZE_THREAD__

}  // namespace
}  // namespace taos::firefly
