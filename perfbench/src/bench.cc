#include "perfbench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <unordered_map>
#include <memory>
#include <mutex>
#include <thread>

#include "src/obs/recorder.h"
#include "src/threads/nub.h"


namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

void BlockQuantiles(const std::vector<double>& samples, std::size_t block, double q,
                    std::vector<double>* out) {
  for (std::size_t i = 0; i + block <= samples.size(); i += block) {
    out->push_back(Quantile({samples.begin() + static_cast<std::ptrdiff_t>(i),
                             samples.begin() + static_cast<std::ptrdiff_t>(i + block)},
                            q));
  }
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), static_cast<double>(ru.ru_nvcsw)};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

obs::Stats Delta(const obs::Stats& after, const obs::Stats& before) {
  obs::Stats d;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    d.counters[i] = after.counters[i] - before.counters[i];
  }
  for (int h = 0; h < obs::kNumHistograms; ++h) {
    for (int b = 0; b < obs::kHistogramBuckets; ++b) {
      d.histograms[h][b] = after.histograms[h][b] - before.histograms[h][b];
    }
  }
  return d;
}

double HistQuantileNs(const obs::Stats& s, obs::Histogram h, double q) {
  const auto& buckets = s.histograms[static_cast<int>(h)];
  std::uint64_t total = 0;
  for (int b = 0; b < obs::kHistogramBuckets; ++b) total += buckets[b];
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int b = 0; b < obs::kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (static_cast<double>(seen) >= rank && seen > 0) {
      return b == 0 ? 0 : static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return static_cast<double>(std::uint64_t{1} << (obs::kHistogramBuckets - 1));
}

double WarmupSeconds(double seconds) { return std::min(0.5, 0.05 * seconds); }

bool StartTimed(const Args& args) {
  if (!args.setup_only) return true;
  std::printf("first_op_ns %llu\n", static_cast<unsigned long long>(NowNs()));
  std::fflush(stdout);
  return false;
}

namespace {

void MeasureWindow(const std::function<std::uint64_t()>& done, std::uint64_t until_ns,
                   Window* w) {
  taos::Nub& nub = taos::Nub::Get();
  const Usage u0 = ReadUsage();
  const obs::Stats s0 = obs::Snapshot();
  const std::uint64_t nub0 = nub.nub_entries.load();
  const std::uint64_t done0 = done();
  std::uint64_t last_t = NowNs(), last_n = done0;
  while (last_t < until_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t t = NowNs(), n = done();
    w->rates.push_back(static_cast<double>(n - last_n) / (static_cast<double>(t - last_t) / 1e9));
    last_t = t, last_n = n;
  }
  const Usage u1 = ReadUsage();
  w->ops = last_n - done0;
  w->cpu_s = u1.cpu_s - u0.cpu_s;
  w->vcsw = u1.voluntary_switches - u0.voluntary_switches;
  w->nub_entries = static_cast<double>(nub.nub_entries.load() - nub0);
  w->obs = Delta(obs::Snapshot(), s0);
}

}  // namespace

void DriveStages(const Args& args, std::atomic<int>& stage,
                 const std::function<std::uint64_t()>& done, Window* a, Window* b) {
  const std::uint64_t start = NowNs();
  const auto at = [&](double sec) { return start + static_cast<std::uint64_t>(sec * 1e9); };
  const double warm = WarmupSeconds(args.seconds);
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(at(warm))));
  stage.store(kMeasureA);
  MeasureWindow(done, at(args.trace ? warm + (args.seconds - warm) / 2 : args.seconds), a);
  if (!args.trace) return;
  Tracer::Get().Enable(true);
  obs::SetRecorderEnabled(true);
  stage.store(kMeasureB);
  MeasureWindow(done, at(args.seconds), b);
  obs::SetRecorderEnabled(false);
  Tracer::Get().Enable(false);
}

Progress& GlobalProgress() {
  static Progress p;
  return p;
}

void RunWithDeadline(double deadline_s, const std::string& stamp_json,
                     void (*body)(const Args&, Result*), const Args& args,
                     Result* out) {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto shared = std::make_shared<Shared>();
  std::thread worker([shared, body, &args, out] {
    body(args, out);
    std::lock_guard<std::mutex> l(shared->mu);
    shared->done = true;
    shared->cv.notify_all();
  });
  std::unique_lock<std::mutex> l(shared->mu);
  const bool finished = shared->cv.wait_for(
      l, std::chrono::duration<double>(deadline_s), [&] { return shared->done; });
  if (finished) {
    l.unlock();
    worker.join();
    return;
  }
  // The workload is stuck inside the runtime: report what was attempted and
  // count everything not completed as failed, then leave without joining.
  Progress& p = GlobalProgress();
  Result r;
  r.attempted = std::max<std::uint64_t>(1, p.attempted.load());
  r.Fail(std::max<std::uint64_t>(1, r.attempted - std::min(r.attempted, p.completed.load())));
  std::printf("deadline: workload did not finish within %.0f s\n", deadline_s);
  PrintResult(r, stamp_json);
  std::fflush(stdout);
  std::_Exit(0);
}

// ---- tracer ----

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kThreads: return "threads";
    case Layer::kWorkload: return "workload";
    case Layer::kModel: return "model";
    case Layer::kFirefly: return "firefly";
    case Layer::kSpec: return "spec";
    case Layer::kNum: break;
  }
  return "?";
}

namespace {
// A buffer holds at most this many spans; later spans are counted as
// dropped, so a long traced run cannot exhaust memory.
constexpr std::size_t kMaxSpansPerThread = 1 << 20;
}  // namespace

struct Tracer::Buffer {
  std::uint64_t slot = 0;
  std::uint64_t next = 0;
  std::uint64_t dropped = 0;
  std::vector<Span> spans;
};

namespace {
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Tracer::Buffer>>& Buffers() {
  static std::vector<std::unique_ptr<Tracer::Buffer>> b;
  return b;
}
thread_local Tracer::Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_parent = 0;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer t;
  return t;
}

Tracer::Buffer* Tracer::Local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> l(g_buffers_mu);
    auto b = std::make_unique<Buffer>();
    b->slot = Buffers().size() + 1;
    b->spans.reserve(1 << 16);
    t_buffer = b.get();
    Buffers().push_back(std::move(b));
  }
  return t_buffer;
}

std::uint64_t Tracer::NextId() {
  Buffer* b = Local();
  return (b->slot << 40) | ++b->next;
}

void Tracer::Record(const Span& s) {
  Buffer* b = Local();
  if (b->spans.size() >= kMaxSpansPerThread) {
    ++b->dropped;
    return;
  }
  b->spans.push_back(s);
}

std::uint64_t& Tracer::CurrentParent() { return t_parent; }

Tracer::SelfTimes Tracer::Analyze() const {
  SelfTimes out;
  std::lock_guard<std::mutex> l(g_buffers_mu);
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& b : Buffers()) {
    out.dropped += b->dropped;
    for (const Span& s : b->spans) {
      by_id[s.id] = &s;
      ++out.spans;
    }
  }
  for (const auto& [id, s] : by_id) {
    if (s->parent != 0 && by_id.count(s->parent) != 0) children[s->parent].push_back(s);
  }
  std::map<std::string, double> self_by_name;
  std::map<std::string, std::vector<double>> dur_by_name;
  for (const auto& [id, s] : by_id) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const Span* c : children[id]) {
      const std::uint64_t a = std::max(c->start, s->start);
      const std::uint64_t z = std::min(c->end, s->end);
      if (z > a) iv.emplace_back(a, z);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_z = 0;
    for (const auto& [a, z] : iv) {
      if (a > cur_z) {
        covered += cur_z - cur_a;
        cur_a = a;
        cur_z = z;
      } else {
        cur_z = std::max(cur_z, z);
      }
    }
    covered += cur_z - cur_a;
    const double dur_us = static_cast<double>(s->end - s->start) / 1e3;
    const double self_us = dur_us - static_cast<double>(covered) / 1e3;
    out.layer_us[static_cast<int>(s->layer)] += self_us;
    self_by_name[s->name] += self_us;
    dur_by_name[s->name].push_back(dur_us);
  }
  out.by_name.assign(self_by_name.begin(), self_by_name.end());
  for (auto& [name, v] : dur_by_name) out.durations_us.emplace_back(name, std::move(v));
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> l(g_buffers_mu);
  f << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& b : Buffers()) {
    for (const Span& s : b->spans) {
      f << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << LayerName(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b->slot
        << ",\"ts\":" << static_cast<double>(s.start) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << "}}";
      first = false;
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
