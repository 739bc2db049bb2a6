// Contention diagnosis: the always-compiled waits-for registry and the
// watchdog that turns a silent hang into a named deadlock.
//
// The paper specifies the primitives by who may proceed when; the counters
// (metrics.h) and the flight recorder (recorder.h) say how often and how
// long, but neither can answer the two questions a hung process poses:
// WHO is blocked on WHAT, and who was supposed to wake them? This header
// materializes the blocking relation itself:
//
//   - Every thread that has blocked owns one WaiterSlot until it ends (the
//     slot then goes back for reuse). The blocking slow paths publish
//     BlockedOn{object id, wait kind, since_ns, holder word} into it right
//     before de-scheduling and clear it on wake (src/threads/thread_record.h
//     is the single funnel). Publication is seqlock-style: writers
//     (serialized by the record's parking-lot lock) bump `seq` to odd, store
//     the fields, bump to even; a reader that sees an odd or changing seq
//     retries or skips. All fields are relaxed atomics so the lock-free
//     readers are exactly as racy as intended and no more (TSan-clean).
//
//   - Owners are read from the object itself. For the kinds that have one
//     (Mutex; ReaderWriterMutex, whose shared and exclusive waiters both
//     point at the writer word) the slot carries a pointer to the object's
//     holder_ word, which the acquire and release epilogues store anyway.
//     Diagnosis therefore adds nothing to the uncontended fast path and has
//     no switch: owners are named in every process.
//
//   - SnapshotBlocked() + FindCycles() turn the slots into the
//     thread -> object -> owner graph and its cycles; Watchdog runs them
//     periodically from a background thread and dumps blocked edges, wait
//     ages, recent flight-recorder events and (via hook) the chaos replay
//     triple when a deadlock or stall is detected.
//
// Lifetime (DESIGN.md §14): a snapshot dereferences the holder word of an
// object some thread is blocked on, so it must never outlive that object.
// Clients may not destroy an object while a thread is blocked on it, so the
// waker has cleared the waiter's slot before the destructor runs. A snapshot
// raises a global in-flight count before it reads any slot and lowers it
// afterwards; the owner-bearing destructors call DrainSnapshots(), which
// fences and waits for that count to read 0. Either the snapshot sees the
// cleared slot, or the destructor waits until its read is done.
//
// Layering: taos_obs is the bottom library (src/base links against it), so
// this header and diag.cc use the standard library only. The chaos probe
// and banner hooks exist so higher layers can inject their seams without a
// dependency inversion.

#ifndef TAOS_SRC_OBS_DIAG_H_
#define TAOS_SRC_OBS_DIAG_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace taos::obs::diag {

// What a blocked thread is waiting for. Values mirror
// ThreadRecord::BlockKind (static_asserted at the publish site) so the
// threads layer can cast instead of mapping.
enum class WaitKind : std::uint8_t {
  kNone = 0,
  kMutex,
  kSemaphore,
  kCondition,
  kRwShared,
  kRwExclusive,
  kEvent,
  kPollAny,
  kPollAll,
};

const char* WaitKindName(WaitKind k);

// One thread's published blocking state. Cache-line sized and aligned;
// single logical writer (serialized externally by the owning record's
// parking-lot lock), any number of lock-free readers.
struct alignas(64) WaiterSlot {
  std::atomic<std::uint32_t> seq{0};  // odd while a write is in flight
  std::atomic<std::uint8_t> kind{0};  // WaitKind
  std::atomic<std::uint8_t> alertable{0};
  std::atomic<std::uint64_t> obj{0};       // spec::ObjId
  std::atomic<std::uint64_t> since_ns{0};  // NowNanos at publication
  // The blocked-on object's holder word (its holding thread id, 0 when
  // free), or null for kinds without an owner.
  std::atomic<const std::atomic<std::uint32_t>*> holder{nullptr};
  // The owning thread; republished under `seq` when a slot is reused.
  std::atomic<std::uint64_t> tid{0};
};

// Hands the calling thread a slot: one a finished thread gave back if there
// is one, else a new one. Slots are never freed — a snapshot may still hold
// a pointer to a slot whose thread has ended — so the registry is as large
// as the most threads that ever held slots at once, not as every thread
// that ever blocked.
WaiterSlot* RegisterWaiterSlot(std::uint64_t tid);

// Gives a slot back when its thread ends, for the next RegisterWaiterSlot.
// The slot must read kNone: a thread does not end while blocked.
void ReleaseWaiterSlot(WaiterSlot* s);

// Registered slots, in use or free. Racy; for tests.
std::size_t WaiterSlotCountForDebug();

// Seqlock write: callers hold whatever serializes writes to this slot (the
// record's parking-lot lock in the production runtime).
inline void PublishBlocked(WaiterSlot* s, WaitKind kind, std::uint64_t obj,
                          std::uint64_t since_ns, bool alertable,
                          const std::atomic<std::uint32_t>* holder) {
  const std::uint32_t seq = s->seq.load(std::memory_order_relaxed);
  s->seq.store(seq + 1, std::memory_order_release);
  s->kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s->alertable.store(alertable ? 1 : 0, std::memory_order_relaxed);
  s->obj.store(obj, std::memory_order_relaxed);
  s->since_ns.store(since_ns, std::memory_order_relaxed);
  s->holder.store(holder, std::memory_order_relaxed);
  s->seq.store(seq + 2, std::memory_order_release);
}

inline void ClearBlocked(WaiterSlot* s) {
  PublishBlocked(s, WaitKind::kNone, 0, 0, false, nullptr);
}

// Called by the destructor of every object whose holder word a slot can
// name: waits until no SnapshotBlocked() is in flight (see the lifetime
// note above). Costs one fence and one load when no snapshot runs.
void DrainSnapshots();

// --- snapshot and cycle detection ---

struct BlockedEdge {
  std::uint64_t tid = 0;
  std::uint64_t obj = 0;
  std::uint64_t since_ns = 0;
  WaitKind kind = WaitKind::kNone;
  bool alertable = false;
  std::uint64_t owner = 0;  // read through the slot's holder; 0 = unknown
};

// Seqlock-consistent read of every registered slot that is currently
// blocked, with owners resolved. Also fires the snapshot probe (the chaos
// seam installed by SetSnapshotProbe).
std::vector<BlockedEdge> SnapshotBlocked();

// A deadlock: blocked edges forming a closed thread -> object -> owner
// loop, listed in walk order starting from the smallest tid.
struct Cycle {
  std::vector<BlockedEdge> edges;
};

// Each thread has at most one outgoing edge (it blocks on at most one
// object), so the waits-for graph is functional and every cycle is a
// simple loop. Owner-less kinds (semaphores, conditions, reader waits
// against an unknown holder) terminate a walk — they cannot close a cycle.
std::vector<Cycle> FindCycles(const std::vector<BlockedEdge>& edges);

// Human-readable report: one line per blocked thread (kind, object, wait
// age, owner), then any cycles. `now_ns` supplies the age reference.
std::string FormatBlockedReport(const std::vector<BlockedEdge>& edges,
                                const std::vector<Cycle>& cycles,
                                std::uint64_t now_ns);

// Chaos seam: called once per SnapshotBlocked(), after the slots are read
// and before the owners are. Installed by the chaos layer (which sits above
// obs) so the snapshot window is injectable without this library depending
// on chaos.h. Returns the probe it replaces.
using SnapshotProbe = void (*)();
SnapshotProbe SetSnapshotProbe(SnapshotProbe probe);

// --- the watchdog ---

class Watchdog {
 public:
  struct Options {
    std::uint64_t interval_ms = 1000;
    // A blocked edge older than this flags a stall dump even without a
    // cycle. Test mains pick something comfortably below the ctest
    // timeout so a hang self-diagnoses before the harness kills it.
    std::uint64_t stall_ms = 30000;
    std::FILE* out = nullptr;  // dump destination; nullptr = stderr
    // Also append dumps to this file (CI uploads it on failure). Empty =
    // TAOS_WATCHDOG_DUMP env var if set, else no file.
    std::string dump_path;
    // Extra banner printed at the end of each dump (test mains pass
    // chaos::PrintConfigBanner so a dump carries the replay triple).
    void (*banner)(std::FILE*) = nullptr;
    // Called (from the watchdog thread) with the formatted dump when a
    // deadlock cycle is confirmed. The deliberately-deadlocked CI fixture
    // uses this to exit 0 instead of hanging.
    std::function<void(const std::string& dump,
                       const std::vector<Cycle>& cycles)>
        on_deadlock;
  };

  Watchdog() = default;
  ~Watchdog() { Stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Start(const Options& options);
  void Stop();
  bool running() const { return thread_.joinable(); }

  // Scans performed so far (tests use this to wait for coverage).
  std::uint64_t scans() const {
    return scans_.load(std::memory_order_relaxed);
  }

 private:
  void ThreadMain();
  void Scan();
  // A cycle is only reported once the same members are seen blocked with
  // identical since_ns in two consecutive scans: real deadlocks are
  // eternal, while a barging handoff or an in-flight wake can fake one for
  // a single snapshot.
  bool ConfirmedInPreviousScan(const Cycle& cycle) const;
  void Dump(const std::string& report);

  Options options_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> scans_{0};
  // tid -> (obj, since_ns) from the previous scan.
  std::vector<BlockedEdge> prev_edges_;
  bool deadlock_reported_ = false;
  std::uint64_t last_stall_dump_ns_ = 0;
};

}  // namespace taos::obs::diag

#endif  // TAOS_SRC_OBS_DIAG_H_
