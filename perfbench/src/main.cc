// perfbench: one process per run of one workload.
//
//   perfbench --workload {fastpath,server,contended,explore} --seed N
//             --seconds S --trace {0,1} [--setup-only] [--trace-out FILE]
//             [--git-rev REV]
//
// run.py builds this binary and drives it; see perfbench/NOTES.md.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "perfbench/src/bench.h"
#include "src/base/spinlock.h"
#include "src/threads/nub.h"
#include "src/waitq/parker.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string StampJson(const std::string& git_rev) {
  taos::Nub& nub = taos::Nub::Get();
  const bool futex =
      taos::waitq::Parker::DefaultBackend() == taos::waitq::Parker::Backend::kFutex;
  std::ostringstream os;
  os << "{\"global_lock_mode\":" << (nub.global_lock_mode() ? "true" : "false")
     << ",\"waitq_mode\":" << (nub.waitq_mode() ? "true" : "false")
     << ",\"lock_backend\":" << JsonString(taos::LockBackendName(taos::SpinLock::backend()))
     << ",\"parker_backend\":" << JsonString(futex ? "futex" : "condvar")
     << ",\"nproc\":" << Nproc()
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
     << ",\"git_rev\":" << JsonString(git_rev) << "}";
  return os.str();
}

void PrintResult(const Result& r, const std::string& stamp_json) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\":" << (r.correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), v, m.unit.c_str());
    os << (i ? "," : "") << JsonString(m.name) << ":{\"value\":" << v
       << ",\"unit\":" << JsonString(m.unit) << "}";
  }
  os << "},\"stamp\":" << stamp_json << "}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int BadArgs(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace {0,1} [--setup-only] [--trace-out FILE] "
               "[--git-rev REV]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string git_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      args.setup_only = true;
    } else if (!has_value) {
      return BadArgs(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out") {
      args.trace_out = argv[++i];
    } else if (a == "--git-rev") {
      git_rev = argv[++i];
    } else {
      return BadArgs(("unknown argument " + a).c_str());
    }
  }
  if (!(args.seconds >= 1 && args.seconds <= 120)) {
    return BadArgs("--seconds must be within [1, 120]");
  }
  void (*body)(const Args&, Result*) = nullptr;
  if (args.workload == "fastpath") body = Fastpath;
  if (args.workload == "server") body = Server;
  if (args.workload == "contended") body = Contended;
  if (args.workload == "explore") body = Explore;
  if (body == nullptr) return BadArgs("unknown --workload");

  const std::string stamp = StampJson(git_rev);
  if (!args.setup_only) std::printf("stamp %s\n", stamp.c_str());
  Result r;
  // A hang inside the runtime must end the run well within 180 s.
  RunWithDeadline(args.seconds + 40, stamp, body, args, &r);
  if (args.setup_only) return 0;
  if (args.trace && !args.trace_out.empty() && !Tracer::Get().Write(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    r.Fail(1);
  }
  if (r.attempted == 0) r.Fail(1), r.attempted = 1;
  PrintResult(r, stamp);
  return 0;
}
