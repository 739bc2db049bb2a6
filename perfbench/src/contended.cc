// contended: 4 threads run short critical sections on a small seeded pool
// of shared objects. Of the sections, 67.5% are RwMutex shared reads of a
// two-field record, 7.5% exclusive writes (so 90/10 among RwMutex
// sections), and 25% Mutex-guarded counter increments interleaved with
// both. Exclusion with reads beside writes: the Nub object lock, the
// spin-lock backend and barging retries do the work; the timer and Poll do
// none.
//
// Correctness: a reader must never see a torn record (b == Derive(a)), each
// record's a must equal the writes made to it, and the counters must sum to
// the counter sections run.

#include <algorithm>
#include <random>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/threads/threads.h"

namespace perfbench {
namespace {

constexpr int kMaxThreads = 4;
constexpr int kRecords = 4;
constexpr int kCounters = 4;
constexpr std::size_t kSeqLen = 4000;  // 2700 reads, 300 writes, 1000 counts
constexpr std::size_t kBatch = 256;    // sections per latency sample
constexpr std::uint64_t kRoundSections = 20000;  // verdict_s quota per thread
constexpr std::size_t kLatencyBlock = 10000;     // batches per percentile block
constexpr std::size_t kTraceEvery = 512;         // traced half: 1 batch in 512

enum Kind : std::uint8_t { kRead, kWrite, kCount };

struct Item {
  Kind kind;
  std::uint8_t obj;
};

std::uint64_t Derive(std::uint64_t a) { return ~a * 0x9e3779b97f4a7c15ULL; }

struct alignas(64) Record {
  taos::ReaderWriterMutex rw;
  std::uint64_t a = 0;
  std::uint64_t b = Derive(0);
};

struct alignas(64) Counter {
  taos::Mutex mu;
  std::uint64_t n = 0;
};

struct alignas(64) ThreadState {
  std::atomic<std::uint64_t> done{0};
  std::uint64_t torn = 0;
  std::uint64_t counts = 0;
  std::uint64_t writes[kRecords] = {};
  SampleRing batch_us;  // per-section time per batch, untraced phase
  std::vector<double> round_s;
};

struct Shared {
  Record rec[kRecords];
  Counter cnt[kCounters];
  std::atomic<int> phase{kWarm};
  ThreadState th[kMaxThreads];
};

std::vector<Item> MakeSequence(std::uint64_t seed) {
  std::vector<Item> seq;
  seq.reserve(kSeqLen);
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    const Kind k = i < 2700 ? kRead : i < 3000 ? kWrite : kCount;
    seq.push_back({k, static_cast<std::uint8_t>(i % kRecords)});
  }
  std::mt19937_64 rng(seed);
  std::shuffle(seq.begin(), seq.end(), rng);
  return seq;
}

void Section(Shared& s, ThreadState& me, const Item& it, bool traced) {
  switch (it.kind) {
    case kRead: {
      Record& rec = s.rec[it.obj];
      {
        Scope acq("rw.acquire", Layer::kThreads, traced);
        rec.rw.AcquireShared();
      }
      me.torn += rec.b != Derive(rec.a);
      Scope rel("release", Layer::kThreads, traced);
      rec.rw.ReleaseShared();
      break;
    }
    case kWrite: {
      Record& rec = s.rec[it.obj];
      {
        Scope acq("rw.acquire", Layer::kThreads, traced);
        rec.rw.Acquire();
      }
      rec.a += 1;
      rec.b = Derive(rec.a);
      ++me.writes[it.obj];
      Scope rel("release", Layer::kThreads, traced);
      rec.rw.Release();
      break;
    }
    case kCount: {
      Counter& c = s.cnt[it.obj];
      {
        Scope acq("mutex.acquire", Layer::kThreads, traced);
        c.mu.Acquire();
      }
      ++c.n;
      ++me.counts;
      Scope rel("release", Layer::kThreads, traced);
      c.mu.Release();
      break;
    }
  }
}

void ThreadLoop(Shared& s, int t, const std::vector<Item>& seq) {
  ThreadState& me = s.th[t];
  me.batch_us.Allocate(1 << 18);
  Progress& prog = GlobalProgress();
  std::uint64_t round_start = NowNs(), round_done = 0;
  std::size_t pos = 0;
  for (std::uint64_t batch = 0;; ++batch) {
    const int phase = s.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const bool traced = phase == kMeasureB && batch % kTraceEvery == 0;
    const std::uint64_t t0 = NowNs();
    {
      Scope sections("sections", Layer::kBench, traced, batch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        Section(s, me, seq[pos], traced);
        pos = pos + 1 == seq.size() ? 0 : pos + 1;
      }
    }
    const std::uint64_t t1 = NowNs();
    prog.attempted.fetch_add(kBatch, std::memory_order_relaxed);
    prog.completed.fetch_add(kBatch, std::memory_order_relaxed);
    me.done.fetch_add(kBatch, std::memory_order_relaxed);
    if (phase == kMeasureA) me.batch_us.Push(static_cast<double>(t1 - t0) / 1e3 / kBatch);
    if (phase == kWarm) {
      round_start = t1, round_done = 0;
    } else if ((round_done += kBatch) >= kRoundSections) {
      me.round_s.push_back(static_cast<double>(t1 - round_start) / 1e9);
      round_start = t1, round_done = 0;
    }
  }
}

}  // namespace

void Contended(const Args& args, Result* r) {
  const int n = std::max(1, std::min<int>(kMaxThreads, static_cast<int>(std::thread::hardware_concurrency())));
  auto s = std::make_unique<Shared>();
  std::vector<std::vector<Item>> seq;
  for (int t = 0; t < n; ++t) {
    seq.push_back(MakeSequence(args.seed * kMaxThreads + static_cast<std::uint64_t>(t)));
  }
  const bool measure = StartTimed(args);
  if (!measure) s->phase.store(kStop);
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) threads.emplace_back([&s, &seq, t] { ThreadLoop(*s, t, seq[t]); });
  Window a, b;
  if (measure) {
    DriveStages(args, s->phase, [&s, n] {
      std::uint64_t d = 0;
      for (int t = 0; t < n; ++t) d += s->th[t].done.load(std::memory_order_relaxed);
      return d;
    }, &a, &b);
  }
  s->phase.store(kStop);
  for (auto& th : threads) th.join();
  if (!measure) return;
  // Before the analysis below copies the samples.
  if (!args.trace) r->Add("peak_rss_mb", PeakRssMb(), "MB");

  std::uint64_t done = 0, torn = 0, counts = 0, counted = 0;
  std::uint64_t writes[kRecords] = {};
  for (int t = 0; t < n; ++t) {
    const ThreadState& me = s->th[t];
    done += me.done.load();
    torn += me.torn;
    counts += me.counts;
    for (int i = 0; i < kRecords; ++i) writes[i] += me.writes[i];
  }
  for (const Counter& c : s->cnt) counted += c.n;
  std::uint64_t lost = counted > counts ? counted - counts : counts - counted;
  for (int i = 0; i < kRecords; ++i) {
    const std::uint64_t a_val = s->rec[i].a;
    lost += a_val > writes[i] ? a_val - writes[i] : writes[i] - a_val;
  }
  r->attempted += done;
  r->Fail(torn + lost);

  std::vector<double> lat, rounds;
  for (int t = 0; t < n; ++t) {
    const std::vector<double> v = s->th[t].batch_us.Values();
    lat.insert(lat.end(), v.begin(), v.end());
    rounds.insert(rounds.end(), s->th[t].round_s.begin(), s->th[t].round_s.end());
  }
  if (!args.trace) {
    // Medians, not QuietRate/QuietTime: a descheduled thread leaves the
    // others less contention, so here host steal makes some windows faster.
    r->Add("ops_per_s", Median(a.rates), "1/s");
    std::vector<double> p50, p99;
    BlockQuantiles(lat, kLatencyBlock, 0.5, &p50);
    BlockQuantiles(lat, kLatencyBlock, 0.99, &p99);
    r->Add("latency_p50_us", Median(p50), "us");
    r->Add("latency_p99_us", Median(p99), "us");
    r->Add("cpu_us_per_op", PerOp(a.cpu_s * 1e6, static_cast<double>(a.ops)), "us");
    r->Add("verdict_s", Median(rounds), "s");
    r->Add("latency_samples", static_cast<double>(lat.size()), "count");
    return;
  }
  WakeupMetrics(b.obs, r);
  ObsLayerMetrics(a.obs, a.nub_entries, static_cast<double>(a.ops), a.vcsw, r);
  r->Add("latency_samples", static_cast<double>(lat.size()), "count");
  r->Add("obs.trace_overhead_ratio", Median(a.rates) / Median(b.rates), "ratio");
  const Tracer::SelfTimes st = Tracer::Get().Analyze();
  SelfTimeMetrics(st, static_cast<double>(b.ops) / kTraceEvery, r);
  for (const auto& [name, d] : st.durations_us) {
    const std::string m = name == "rw.acquire"      ? "threads.rw_acquire_us"
                          : name == "mutex.acquire" ? "threads.mutex_acquire_us"
                                                    : "";
    if (m.empty()) continue;
    r->Add(m + "_p50", Quantile(d, 0.5), "us");
    r->Add(m + "_p99", Quantile(d, 0.99), "us");
  }
  LayerProbes(r);
}

}  // namespace perfbench
