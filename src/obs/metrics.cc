#include "src/obs/metrics.h"

#include <bit>
#include <chrono>
#include <iterator>
#include <mutex>
#include <sstream>
#include <vector>

namespace taos::obs {

namespace {

// The registry guards cold operations only (thread birth, snapshot, reset),
// so a std::mutex is fine; the hot path never touches it.
std::mutex& RegistryLock() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<Cell*>& Registry() {
  static std::vector<Cell*>* v = new std::vector<Cell*>();
  return *v;
}

// Deliberately unsized: the static_asserts below pin the table lengths to
// the enums, so adding a Counter/Histogram without naming it (or naming one
// twice) is a compile error instead of a silent trailing null that
// Snapshot/StatsJson would walk into.
constexpr const char* kCounterNames[] = {
    "fast_mutex_acquire",
    "fast_mutex_release",
    "fast_sem_p",
    "fast_sem_v",
    "fast_signal",
    "fast_broadcast",
    "nub_acquire",
    "nub_release",
    "nub_wait",
    "nub_signal",
    "nub_broadcast",
    "nub_p",
    "nub_v",
    "nub_alert",
    "nub_alert_wait",
    "nub_alert_p",
    "wakeup_waiting_hits",
    "spurious_wakeups",
    "handoffs",
    "lock_bit_retries",
    "spin_iterations",
    "contended_spin_acquires",
    "mcs_queued_acquires",
    "clh_queued_acquires",
    "eventcount_advances",
    "waitq_enqueues",
    "waitq_resumes",
    "waitq_immediate_grants",
    "waitq_cancels",
    "park_futex_waits",
    "park_condvar_waits",
    "timers_armed",
    "timers_cancelled",
    "timers_expired",
    "timed_wait_satisfied",
    "timed_wait_timeouts",
    "timed_wait_alerted",
    "poll_registrations",
    "poll_spurious_scans",
};
static_assert(std::size(kCounterNames) == static_cast<std::size_t>(kNumCounters),
              "kCounterNames must name every Counter exactly once");

constexpr const char* kHistogramNames[] = {
    "spin_acquire_ns",
    "spin_iters_per_acquire",
    "lock_handoff_ns",
    "blocked_ns",
    "park_wait_ns",
    "unpark_ns",
    "timer_expiry_lag_ns",
    "wakeup_latency_ns",
};
static_assert(
    std::size(kHistogramNames) == static_cast<std::size_t>(kNumHistograms),
    "kHistogramNames must name every Histogram exactly once");

}  // namespace

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<int>(c)];
}

const char* HistogramName(Histogram h) {
  return kHistogramNames[static_cast<int>(h)];
}

namespace internal {
thread_local Cell* g_cell = nullptr;
}  // namespace internal

Cell* RegisterCell() {
  Cell* cell = new Cell();  // value-initialized: all slots zero
  {
    std::lock_guard<std::mutex> g(RegistryLock());
    Registry().push_back(cell);
  }
  internal::g_cell = cell;
  return cell;
}

int HistogramBucket(std::uint64_t value) {
  const int b = std::bit_width(value);  // 0 for 0, else floor(log2)+1
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

std::uint64_t NowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

std::uint64_t Stats::HistogramTotal(Histogram h) const {
  std::uint64_t total = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    total += histograms[static_cast<int>(h)][b];
  }
  return total;
}

Stats Snapshot() {
  Stats out;
  std::lock_guard<std::mutex> g(RegistryLock());
  for (Cell* cell : Registry()) {
    for (int c = 0; c < kNumCounters; ++c) {
      out.counters[c] += cell->counters[c].load(std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b) {
        out.histograms[h][b] +=
            cell->histograms[h][b].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

std::string StatsJson(const Stats& stats) {
  std::ostringstream os;
  os << "{\"counters\": {";
  for (int c = 0; c < kNumCounters; ++c) {
    os << (c ? ", " : "") << '"' << kCounterNames[c]
       << "\": " << stats.counters[c];
  }
  os << "}, \"histograms\": {";
  for (int h = 0; h < kNumHistograms; ++h) {
    os << (h ? ", " : "") << '"' << kHistogramNames[h] << "\": [";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      os << (b ? "," : "") << stats.histograms[h][b];
    }
    os << ']';
  }
  os << "}}";
  return os.str();
}

std::string ReportJson() { return StatsJson(Snapshot()); }

void ResetStats() {
  std::lock_guard<std::mutex> g(RegistryLock());
  for (Cell* cell : Registry()) {
    for (int c = 0; c < kNumCounters; ++c) {
      cell->counters[c].store(0, std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b) {
        cell->histograms[h][b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace taos::obs
