// Parker: the one-permit park/unpark primitive every blocked thread
// suspends on. It is the "de-schedule this thread / add it to the ready
// pool" substitution point of the Nub, factored out of
// ThreadRecord so the blocking mechanism is pluggable:
//
//   - kFutex    — a 3-state futex protocol (Linux only): EMPTY/PARKED/
//                 NOTIFIED in one 32-bit word, one FUTEX_WAIT per real sleep
//                 and one FUTEX_WAKE per handoff, no heap or kernel object
//                 per parker.
//   - kCondvar  — std::mutex + std::condition_variable + the same permit
//                 word, the portable fallback.
//
// The permit discipline matches std::binary_semaphore{0}: Unpark deposits at
// most one permit; Park consumes one, sleeping until it arrives. An Unpark
// that races ahead of the Park is never lost (the permit waits), and a
// spurious futex return re-checks the word. The Nub's queue discipline
// guarantees at most one Unpark per Park, but the parker itself also
// tolerates Unpark-with-no-parker (the permit is consumed by the next Park).
//
// Memory ordering (the fence argument): Park-returns is an acquire edge
// paired with Unpark's release on the permit word, in BOTH backends. The
// unparker writes the reason for the wakeup (a cleared blocked state, a
// timeout receipt, an alert) before Unpark; the parked thread
// reads it right after Park returns. Those payload reads must not be
// reorderable above the observation of kNotified, so the edge has to stand
// on the permit word itself:
//   - futex: the consuming CAS kNotified -> kEmpty is acquire, pairing with
//     the release exchange in FutexUnpark (the kernel sleep provides no
//     ordering of its own).
//   - condvar: the spin re-check of state_ loads with acquire, pairing with
//     the release store in CondvarUnpark. mu_ usually also synchronizes the
//     pair, but Park may observe kNotified on its first check without
//     blocking after an Unpark that already left the critical section, and
//     the permit protocol must not depend on the lock being taken on both
//     sides of every handoff.
//
// Backend selection: the process default is futex on Linux, condvar
// elsewhere, overridable with TAOS_WAITQ_PARKER=futex|condvar (read once);
// individual parkers can pin a backend for A/B benches and tests.

#ifndef TAOS_SRC_WAITQ_PARKER_H_
#define TAOS_SRC_WAITQ_PARKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace taos::waitq {

class Parker {
 public:
  enum class Backend { kFutex, kCondvar };

  // The process-wide default: TAOS_WAITQ_PARKER if set, else futex on Linux
  // and condvar elsewhere. A futex request on a non-futex platform degrades
  // to condvar.
  static Backend DefaultBackend();

  Parker() : backend_(DefaultBackend()) {}
  explicit Parker(Backend b) : backend_(Resolve(b)) {}
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  Backend backend() const { return backend_; }

  // Consumes one permit, blocking until it is deposited.
  void Park();

  // Consumes one permit if it is deposited before `deadline_ns` on the
  // obs::NowNanos() timeline. Returns true if a permit was consumed (even
  // if it raced past the deadline), false if the deadline passed with no
  // permit — in which case no permit is consumed and the parker is reusable
  // immediately. Futex backend: FUTEX_WAIT with a timeout; condvar backend:
  // wait_until against the same clock. Same acquire/release pairing as
  // Park/Unpark.
  bool ParkUntil(std::uint64_t deadline_ns);

  // Deposits one permit, waking the parked thread if there is one. Safe from
  // any thread; never blocks (beyond the condvar backend's short critical
  // section).
  void Unpark();

  // Test-only: wakes the underlying futex/condvar WITHOUT depositing a
  // permit — a synthetic spurious wakeup. Park/ParkUntil must absorb it
  // (re-check the word, go back to sleep); returning from Park on one is a
  // permit-protocol violation.
  void SpuriousWakeForDebug();

 private:
  // Values of state_. For the futex backend the word carries the whole
  // protocol; for the condvar backend only kEmpty/kNotified are used (the
  // permit), under mu_.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kParked = 1;
  static constexpr std::uint32_t kNotified = 2;

  static Backend Resolve(Backend b);

  void FutexPark();
  void FutexUnpark();
  void CondvarPark();
  void CondvarUnpark();
  bool FutexParkUntil(std::uint64_t deadline_ns);
  bool CondvarParkUntil(std::uint64_t deadline_ns);

  const Backend backend_;
  std::atomic<std::uint32_t> state_{kEmpty};
  // Wakeup-causality stamp (recorder on only): Unpark writes the flow id
  // and its grant timestamp BEFORE depositing the permit, so the pair rides
  // the permit word's release/acquire edge to the wakee; Park consumes it
  // after returning and emits the matching kParkResume event. Relaxed
  // accesses suffice given that edge; a stamp with no consumer (permit
  // still pending at a timeout) is consumed by the next Park, which is the
  // Park the pending permit wakes.
  std::atomic<std::uint64_t> wake_flow_{0};
  std::atomic<std::uint64_t> wake_ns_{0};
  std::mutex mu_;               // condvar backend only
  std::condition_variable cv_;  // condvar backend only
};

}  // namespace taos::waitq

#endif  // TAOS_SRC_WAITQ_PARKER_H_
