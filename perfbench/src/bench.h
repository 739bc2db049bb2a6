// Shared harness for the perfbench workloads: arguments, the result line,
// quantiles, process usage, obs snapshot deltas, the run deadline and the
// benchmark's own span tracer.
//
// Everything here sits outside the runtime: the workloads call the public
// functions of src/threads, src/waitq, src/base, src/firefly, src/model and
// src/spec, and read obs::Snapshot(); nothing is added inside the runtime.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

namespace obs = taos::obs;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;       // per-layer run: untraced half + traced half
  bool setup_only = false;  // print the first-timed-op instant and stop
  std::string trace_out;    // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records failures; any failure makes the run incorrect.
  void Fail(std::uint64_t n) {
    failed += n;
    if (n > 0) correct = false;
  }
};

// The configuration the runtime actually runs, read from the runtime itself
// (not re-parsed from the environment), plus nproc, build type, compiler
// and the git revision run.py passes in. One JSON object.
std::string StampJson(const std::string& git_rev);

// Prints one metric per line, then the result as one JSON line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
//  "stamp"}. run.py keeps the first four keys for its final line.
void PrintResult(const Result& r, const std::string& stamp_json);

// CLOCK_MONOTONIC nanoseconds (the clock Python's time.monotonic_ns reads,
// so run.py can time process start to first timed op across the exec).
std::uint64_t NowNs();

// Nearest-rank quantile of an unsorted sample; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
// Host steal time only ever slows a window, a block or a pass, and on a
// shared VM it covered most of some runs. Every window, block or pass of a
// run does statistically the same work, so, like the fastest of repeated
// trials, rates are read at the 95th percentile and times at the 5th
// percentile over them: a code change moves all of them, host load some.
inline double QuietRate(std::vector<double> rates) { return Quantile(std::move(rates), 0.95); }
inline double QuietTime(std::vector<double> times) { return Quantile(std::move(times), 0.05); }

// Appends to *out the q-quantile of each consecutive block of `block`
// samples (a trailing partial block is dropped), for QuietTime.
void BlockQuantiles(const std::vector<double>& samples, std::size_t block, double q,
                    std::vector<double>* out);

struct Usage {
  double cpu_s;            // user + system, whole process
  double voluntary_switches;
};
Usage ReadUsage();
double PeakRssMb();

// Per-counter and per-bucket difference of two snapshots.
obs::Stats Delta(const obs::Stats& after, const obs::Stats& before);
// Quantile of a log2 histogram, reported as the upper edge of the bucket
// that holds it (resolution: a factor of 2). 0 when the histogram is empty.
double HistQuantileNs(const obs::Stats& s, obs::Histogram h, double q);

inline double PerOp(double count, double ops) { return ops > 0 ? count / ops : 0; }

// Fixed-capacity sample store. Its owner allocates and zeroes it during
// warm-up, so neither set-up time nor memory depends on it growing with
// speed; once full it keeps the latest samples.
class SampleRing {
 public:
  void Allocate(std::size_t capacity) { v_.assign(capacity, 0.0); }
  void Push(double x) { v_[n_++ % v_.size()] = x; }
  std::vector<double> Values() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(std::min(n_, v_.size()))};
  }

 private:
  std::vector<double> v_;
  std::size_t n_ = 0;
};

// The measured window of a run after warm-up: warm-up is a fixed share of
// the run, so lazy set-up (TLS cells, thread records, timer thread) is paid
// before timing starts.
double WarmupSeconds(double seconds);

// Called by each workload immediately before its first timed op. In
// --setup-only mode prints "first_op_ns <t>" and returns false: the
// workload then tears down without measuring.
bool StartTimed(const Args& args);

// Stages of a multi-threaded workload, published to its threads.
enum Stage : int { kWarm, kMeasureA, kMeasureB, kStop };

// One measured window: completed-op rates sampled every 20 ms, and the
// process usage, Nub entries and obs counts over the window.
struct Window {
  std::vector<double> rates;
  std::uint64_t ops = 0;
  double cpu_s = 0, vcsw = 0, nub_entries = 0;
  obs::Stats obs;
};

// Drives the stages from the calling thread while the workload's threads
// run: warm-up, window `a` untraced, and in a traced run window `b` with
// the tracer and the obs flight recorder on. `done` reads the completed-op
// total. The caller stores kStop afterwards.
void DriveStages(const Args& args, std::atomic<int>& stage,
                 const std::function<std::uint64_t()>& done, Window* a, Window* b);

// Progress that the run deadline reports if the workload does not finish.
struct Progress {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> completed{0};
};
Progress& GlobalProgress();

// Runs `body` on a worker thread with a hard wall-clock deadline. If the
// body has not returned by then, the unfinished work is reported as failed
// and the process exits, so a hang shows as failures, not a stuck run.
void RunWithDeadline(double deadline_s, const std::string& stamp_json,
                     void (*body)(const Args&, Result*), const Args& args,
                     Result* out);

// ---- the benchmark's own spans ----

enum class Layer : std::uint8_t { kBench, kThreads, kWorkload, kModel, kFirefly, kSpec, kNum };
const char* LayerName(Layer l);

struct Span {
  const char* name;
  Layer layer;
  std::uint64_t id;      // (thread slot << 40) | index + 1; 0 = none
  std::uint64_t parent;  // id of the causing span, possibly on another thread
  std::uint64_t req;     // request / item id shared by one request's spans
  std::uint64_t start, end;
};

// Per-thread span buffers, kept in memory and written when the run ends.
// Recording is off unless Enable() was called; a disabled Begin/End costs
// one predictable branch.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  // Allocates the next span id for the calling thread (without recording).
  std::uint64_t NextId();
  // Records a finished span on the calling thread's buffer.
  void Record(const Span& s);
  // The innermost open span on this thread, for parent links.
  static std::uint64_t& CurrentParent();

  // Self time per layer and per span name over every recorded span, in
  // microseconds: duration minus the union of its children's intervals.
  struct SelfTimes {
    double layer_us[static_cast<int>(Layer::kNum)] = {};
    std::vector<std::pair<std::string, double>> by_name;  // name -> us
    std::vector<std::pair<std::string, std::vector<double>>> durations_us;
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
  };
  SelfTimes Analyze() const;
  // Writes every span as Chrome trace-event JSON; returns false on error.
  bool Write(const std::string& path) const;

  struct Buffer;  // one thread's spans (bench.cc)

 private:
  Buffer* Local();
  std::atomic<bool> on_{false};
};

// RAII span around one call into a layer, recorded when tracing is on and
// `when` holds (a workload samples which calls it traces).
class Scope {
 public:
  explicit Scope(const char* name, Layer layer, bool when = true, std::uint64_t req = 0)
      : active_(when && Tracer::Get().on()) {
    if (!active_) return;
    saved_parent_ = Tracer::CurrentParent();
    s_ = {name, layer, Tracer::Get().NextId(), saved_parent_, req, NowNs(), 0};
    Tracer::CurrentParent() = s_.id;
  }
  ~Scope() {
    if (!active_) return;
    s_.end = NowNs();
    Tracer::CurrentParent() = saved_parent_;
    Tracer::Get().Record(s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
  Span s_{};
  std::uint64_t saved_parent_ = 0;
};

// ---- workloads ----
void Fastpath(const Args& args, Result* r);
void Server(const Args& args, Result* r);
void Contended(const Args& args, Result* r);
void Explore(const Args& args, Result* r);

// Layer probes shared by every traced run: batch-timed uncontended pairs of
// each primitive, and std::mutex as the in-process control.
void LayerProbes(Result* r);
// Per-layer metrics derived from an obs delta over `ops` operations, plus
// process context switches over the same window.
void ObsLayerMetrics(const obs::Stats& d, double nub_entries, double ops,
                     double voluntary_switches, Result* r);
// Wakeup latency percentiles: the Parker records them only while the obs
// flight recorder is on, so they come from the traced half.
void WakeupMetrics(const obs::Stats& traced_delta, Result* r);
// Layer self time per op from the tracer.
void SelfTimeMetrics(const Tracer::SelfTimes& st, double ops, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
