// The slow-mode gate of the in-line fast paths. Each primitive's user-code
// operations (Mutex Acquire/TryAcquire/Release, Semaphore P/TryP/V,
// Condition Signal/Broadcast, ReaderWriterMutex's six untimed operations,
// Event Set/TryWait/Reset) are compiled in line and test one slow-mode byte
// before their test-and-set. For every primitive this checks that
//  - with the flight recorder on, the operations record their events and
//    still run the in-line body (fast counters move, the Nub does not);
//  - with a spec trace sink installed, they emit their spec actions;
//  - once each switch is off again, the same operations are back on the
//    fast path: fast counters move, Nub::nub_entries does not, and nothing
//    is recorded or emitted;
//  - the exclusive acquires and releases keep the holder word that
//    diagnosis reads as the owner, in line.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/trace.h"
#include "src/threads/threads.h"

namespace taos {
namespace {

using obs::Counter;
using obs::Op;
using spec::ActionKind;

std::uint64_t NubEntries() {
  return Nub::Get().nub_entries.load(std::memory_order_relaxed);
}

// What one run of a primitive's operation sequence is expected to do.
struct Expect {
  std::uint64_t obj;
  std::vector<std::pair<Op, int>> recorded;  // recorder events on obj
  std::vector<ActionKind> actions;           // spec actions, in order
  std::vector<std::pair<Counter, std::uint64_t>> fast;  // fast counters
};

// Drained recorder events named after `op` on `obj`.
int RecordedEvents(const std::string& trace, Op op, std::uint64_t obj) {
  std::string error;
  const std::optional<obs::json::Value> doc = obs::json::Parse(trace, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  const obs::json::Value* events =
      doc.has_value() ? doc->Find("traceEvents") : nullptr;
  if (events == nullptr || !events->IsArray()) {
    return 0;
  }
  int n = 0;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* name = e.Find("name");
    const obs::json::Value* args = e.Find("args");
    const obs::json::Value* id = args != nullptr ? args->Find("obj") : nullptr;
    if (name != nullptr && name->string == obs::OpName(op) && id != nullptr &&
        id->IsNumber() && static_cast<std::uint64_t>(id->number) == obj) {
      ++n;
    }
  }
  return n;
}

// Runs `ops` with every switch off and checks it stayed on the fast path.
void ExpectFastPath(const std::function<void()>& ops, const Expect& want,
                    const char* after) {
  SCOPED_TRACE(after);
  const obs::Stats before = obs::Snapshot();
  const std::uint64_t nub_before = NubEntries();
  ops();
  const obs::Stats now = obs::Snapshot();
  for (const auto& [counter, n] : want.fast) {
    EXPECT_EQ(now.Count(counter) - before.Count(counter), n)
        << obs::CounterName(counter);
  }
  EXPECT_EQ(NubEntries(), nub_before);
}

// The recorder and trace-sink arms, each followed by the fast path.
void CheckGates(const std::function<void()>& ops, const Expect& want) {
  ASSERT_FALSE(obs::SlowMode());
  ExpectFastPath(ops, want, "all switches off");

  {
    SCOPED_TRACE("recorder on");
    (void)obs::DrainChromeTraceJson();
    obs::SetRecorderEnabled(true);
    ASSERT_TRUE(obs::SlowMode());
    // The recorder arm wraps the same in-line body: fast counters move and
    // the Nub is not entered.
    ExpectFastPath(ops, want, "recorder on");
    obs::SetRecorderEnabled(false);
    const std::string trace = obs::DrainChromeTraceJson();
    for (const auto& [op, n] : want.recorded) {
      EXPECT_EQ(RecordedEvents(trace, op, want.obj), n) << obs::OpName(op);
    }
  }
  ASSERT_FALSE(obs::SlowMode());
  ExpectFastPath(ops, want, "recorder off again");
  for (const auto& [op, n] : want.recorded) {
    EXPECT_EQ(RecordedEvents(obs::DrainChromeTraceJson(), op, want.obj), 0)
        << obs::OpName(op) << " recorded with the recorder off";
  }

  spec::Trace trace;
  {
    SCOPED_TRACE("trace sink installed");
    Nub::Get().SetTrace(&trace);
    ASSERT_TRUE(obs::SlowMode());
    ops();
    Nub::Get().SetTrace(nullptr);
    std::vector<ActionKind> got;
    for (const spec::Action& a : trace.Actions()) {
      got.push_back(a.kind);
    }
    EXPECT_EQ(got, want.actions);
  }
  ASSERT_FALSE(obs::SlowMode());
  ExpectFastPath(ops, want, "trace sink removed");
  EXPECT_EQ(trace.Size(), want.actions.size()) << "emitted with no sink";
}

TEST(FastPathGateTest, Mutex) {
  Mutex m;
  CheckGates(
      [&] {
        m.Acquire();
        m.Release();
        ASSERT_TRUE(m.TryAcquire());
        m.Release();
      },
      {m.id(),
       {{Op::kAcquire, 1}, {Op::kRelease, 2}},
       {ActionKind::kAcquire, ActionKind::kRelease, ActionKind::kAcquire,
        ActionKind::kRelease},
       {{Counter::kFastMutexAcquire, 2}, {Counter::kFastMutexRelease, 2}}});
}

TEST(FastPathGateTest, Semaphore) {
  Semaphore s;
  CheckGates(
      [&] {
        s.P();
        s.V();
        ASSERT_TRUE(s.TryP());
        s.V();
      },
      {s.id(),
       {{Op::kP, 1}, {Op::kV, 2}},
       {ActionKind::kP, ActionKind::kV, ActionKind::kP, ActionKind::kV},
       {{Counter::kFastSemP, 2}, {Counter::kFastSemV, 2}}});
}

TEST(FastPathGateTest, ConditionWithNoWaiters) {
  Condition c;
  CheckGates(
      [&] {
        c.Signal();
        c.Broadcast();
      },
      {c.id(),
       {{Op::kSignal, 1}, {Op::kBroadcast, 1}},
       {ActionKind::kSignal, ActionKind::kBroadcast},
       {{Counter::kFastSignal, 1}, {Counter::kFastBroadcast, 1}}});
}

TEST(FastPathGateTest, ReaderWriterMutex) {
  ReaderWriterMutex rw;
  CheckGates(
      [&] {
        rw.Acquire();
        rw.Release();
        ASSERT_TRUE(rw.TryAcquire());
        rw.Release();
        rw.AcquireShared();
        rw.ReleaseShared();
        ASSERT_TRUE(rw.TryAcquireShared());
        rw.ReleaseShared();
      },
      {rw.id(),
       {{Op::kAcquire, 2}, {Op::kRelease, 4}},
       {ActionKind::kRwAcquire, ActionKind::kRwRelease, ActionKind::kRwAcquire,
        ActionKind::kRwRelease, ActionKind::kRwAcquireShared,
        ActionKind::kRwReleaseShared, ActionKind::kRwAcquireShared,
        ActionKind::kRwReleaseShared},
       {{Counter::kFastMutexAcquire, 4}, {Counter::kFastMutexRelease, 4}}});
}

TEST(FastPathGateTest, Event) {
  Event e(EventReset::kAuto);
  CheckGates(
      [&] {
        e.Set();
        ASSERT_TRUE(e.TryWait());
        e.Set();
        e.Reset();
        ASSERT_FALSE(e.TryWait());
      },
      {e.id(),
       {{Op::kEventSet, 2}},
       {ActionKind::kEventSet, ActionKind::kEventConsume,
        ActionKind::kEventSet, ActionKind::kEventReset},
       {}});
}

// The holder word that the waits-for snapshot reads as the owner is kept
// by the in-line epilogues themselves: no switch, no Nub entry.
template <typename M>
void CheckHolderTracking(M& m) {
  const spec::ThreadId self = Thread::Self().id();
  const std::uint64_t nub_before = NubEntries();
  ASSERT_FALSE(obs::SlowMode());
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
  m.Acquire();
  EXPECT_EQ(m.HolderForDebug(), self);
  m.Release();
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
  ASSERT_TRUE(m.TryAcquire());
  EXPECT_EQ(m.HolderForDebug(), self);
  m.Release();
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
  EXPECT_EQ(NubEntries(), nub_before);
}

TEST(FastPathGateTest, MutexTracksItsHolderInLine) {
  Mutex m;
  CheckHolderTracking(m);
}

TEST(FastPathGateTest, ReaderWriterMutexTracksItsWriterInLine) {
  ReaderWriterMutex rw;
  CheckHolderTracking(rw);
}

}  // namespace
}  // namespace taos
