// Per-layer measurements shared by every traced run: batch-timed layer
// probes, metrics derived from obs counters and histograms, and layer self
// time from the benchmark's spans.

#include <mutex>

#include "perfbench/src/bench.h"
#include "src/threads/threads.h"

namespace perfbench {

// The uncontended Acquire/Release pair, kept out of line so run.py can find
// it in the binary and count the instructions and locked operations on its
// fall-through path (objdump, following direct calls into taos::).
extern "C" [[gnu::noinline]] void perfbench_probe_mutex_pair(taos::Mutex* m) {
  m->Acquire();
  m->Release();
}

namespace {

constexpr int kProbeBatches = 200;
constexpr int kProbePairs = 500;

// Median over batches of the per-pair time of `pair`, in ns.
template <typename F>
double BatchMedianNs(F pair) {
  for (int i = 0; i < kProbePairs; ++i) pair();  // warm caches and TLS
  std::vector<double> per_pair;
  per_pair.reserve(kProbeBatches);
  for (int b = 0; b < kProbeBatches; ++b) {
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kProbePairs; ++i) pair();
    per_pair.push_back(static_cast<double>(NowNs() - t0) / kProbePairs);
  }
  return Median(std::move(per_pair));
}

}  // namespace

void LayerProbes(Result* r) {
  taos::Mutex mu;
  taos::Semaphore sem;
  taos::Condition cond;
  taos::ReaderWriterMutex rw;
  taos::Event ev(taos::EventReset::kAuto);
  taos::MessageQueue<std::uint64_t> q(4);
  std::mutex std_mu;
  std::uint64_t sink = 0;
  r->Add("threads.mutex_pair_ns", BatchMedianNs([&] { perfbench_probe_mutex_pair(&mu); }), "ns");
  r->Add("threads.sem_pv_ns", BatchMedianNs([&] { sem.P(); sem.V(); }), "ns");
  r->Add("threads.signal_nowaiter_ns", BatchMedianNs([&] { cond.Signal(); }), "ns");
  r->Add("threads.rw_shared_pair_ns",
         BatchMedianNs([&] { rw.AcquireShared(); rw.ReleaseShared(); }), "ns");
  r->Add("threads.event_set_trywait_ns",
         BatchMedianNs([&] { ev.Set(); sink += ev.TryWait(); }), "ns");
  r->Add("threads.msgq_try_pair_ns", BatchMedianNs([&] {
           q.TrySend(sink);
           q.TryRecv(&sink);
         }), "ns");
  r->Add("baseline.std_mutex_pair_ns", BatchMedianNs([&] { std_mu.lock(); std_mu.unlock(); }),
         "ns");
}

void ObsLayerMetrics(const obs::Stats& d, double nub_entries, double ops,
                     double voluntary_switches, Result* r) {
  using C = obs::Counter;
  using H = obs::Histogram;
  auto n = [&](C c) { return static_cast<double>(d.Count(c)); };
  const double fast = n(C::kFastMutexAcquire) + n(C::kFastSemP);
  const double slow = n(C::kNubAcquire) + n(C::kNubP);
  const double queued = n(C::kMcsQueuedAcquires) + n(C::kClhQueuedAcquires);
  const double grants = n(C::kWaitqImmediateGrants) + n(C::kWaitqResumes);
  r->Add("threads.nub_entries_per_op", PerOp(nub_entries, ops), "1/op");
  r->Add("threads.fast_hit_ratio", fast + slow > 0 ? fast / (fast + slow) : 0, "ratio");
  r->Add("threads.spurious_wakeups_per_op", PerOp(n(C::kSpuriousWakeups), ops), "1/op");
  r->Add("threads.lock_bit_retries_per_op", PerOp(n(C::kLockBitRetries), ops), "1/op");
  r->Add("threads.handoffs_per_op", PerOp(n(C::kHandoffs), ops), "1/op");
  r->Add("threads.poll_spurious_scans_per_op", PerOp(n(C::kPollSpuriousScans), ops), "1/op");
  r->Add("threads.timer_armed_per_op", PerOp(n(C::kTimersArmed), ops), "1/op");
  r->Add("threads.timer_expired_per_op", PerOp(n(C::kTimersExpired), ops), "1/op");
  r->Add("waitq.enqueues_per_op", PerOp(n(C::kWaitqEnqueues), ops), "1/op");
  r->Add("waitq.immediate_grant_ratio",
         grants > 0 ? n(C::kWaitqImmediateGrants) / grants : 0, "ratio");
  r->Add("waitq.cancels_per_op", PerOp(n(C::kWaitqCancels), ops), "1/op");
  r->Add("waitq.park_us_p50", HistQuantileNs(d, H::kParkWaitNanos, 0.5) / 1e3, "us");
  r->Add("waitq.park_us_p99", HistQuantileNs(d, H::kParkWaitNanos, 0.99) / 1e3, "us");
  r->Add("waitq.unpark_ns_p50", HistQuantileNs(d, H::kUnparkNanos, 0.5), "ns");
  r->Add("waitq.unpark_ns_p99", HistQuantileNs(d, H::kUnparkNanos, 0.99), "ns");
  r->Add("waitq.futex_waits_per_op", PerOp(n(C::kParkFutexWaits), ops), "1/op");
  r->Add("waitq.voluntary_switches_per_op", PerOp(voluntary_switches, ops), "1/op");
  r->Add("base.spin_iterations_per_op", PerOp(n(C::kSpinIterations), ops), "1/op");
  // Share of Nub entries whose spin-lock acquisition had to wait (TAS spin
  // or MCS/CLH queueing): obs counts contended acquisitions, not all.
  r->Add("base.contended_spin_ratio",
         PerOp(n(C::kContendedSpinAcquires) + queued, nub_entries), "ratio");
  r->Add("base.spin_acquire_ns_p50", HistQuantileNs(d, H::kSpinAcquireNanos, 0.5), "ns");
  r->Add("base.spin_acquire_ns_p99", HistQuantileNs(d, H::kSpinAcquireNanos, 0.99), "ns");
  r->Add("base.lock_handoff_ns_p50", HistQuantileNs(d, H::kLockHandoffNanos, 0.5), "ns");
  r->Add("base.queued_acquires_per_op", PerOp(queued, ops), "1/op");
  r->Add("base.eventcount_advances_per_op", PerOp(n(C::kEventCountAdvances), ops), "1/op");
}

void WakeupMetrics(const obs::Stats& d, Result* r) {
  using H = obs::Histogram;
  r->Add("waitq.wakeup_latency_us_p50", HistQuantileNs(d, H::kWakeupLatencyNanos, 0.5) / 1e3,
         "us");
  r->Add("waitq.wakeup_latency_us_p99", HistQuantileNs(d, H::kWakeupLatencyNanos, 0.99) / 1e3,
         "us");
}

void SelfTimeMetrics(const Tracer::SelfTimes& st, double ops, Result* r) {
  for (int l = 0; l < static_cast<int>(Layer::kNum); ++l) {
    r->Add(std::string("selftime.") + LayerName(static_cast<Layer>(l)) + "_us_per_op",
           PerOp(st.layer_us[l], ops), "us/op");
  }
  std::printf("trace %llu spans, %llu dropped\n", static_cast<unsigned long long>(st.spans),
              static_cast<unsigned long long>(st.dropped));
  for (const auto& [name, us] : st.by_name) {
    std::printf("self_time %-24s %.3f us/op\n", name.c_str(), PerOp(us, ops));
  }
}

}  // namespace perfbench
