#include "bench/bench_main.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/threads/nub.h"
#include "src/waitq/parker.h"

namespace taos::benchmain {

int Run(int argc, char** argv, const char* bench_name) {
  bool quick = false;
  bool trace = false;
  std::string out_path = std::string("BENCH_") + bench_name + ".json";
  std::string trace_path = std::string("TRACE_") + bench_name + ".json";

  // Consume our flags; forward the rest (argv[0] first) to google-benchmark.
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  std::vector<std::string> owned;  // storage for synthesized flags
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      out_path = a + 6;
    } else if (std::strcmp(a, "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      trace = true;
      trace_path = a + 8;
    } else {
      fwd.push_back(argv[i]);
    }
  }
  if (quick) {
    // Bare double: this build of google-benchmark rejects "0.01s".
    owned.push_back("--benchmark_min_time=0.01");
  }
  // Have the library write its own JSON to a side file; it is embedded into
  // the report below. Synthesized last so it wins over any user-passed
  // --benchmark_out.
  const std::string gbench_path = out_path + ".gbench.tmp";
  owned.push_back("--benchmark_out=" + gbench_path);
  owned.push_back("--benchmark_out_format=json");
  for (std::string& s : owned) {
    fwd.push_back(s.data());
  }

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) {
    return 1;
  }

  if (trace) {
    // Self-describing trace artifacts: the drained JSON's otherData names
    // the configuration that produced it, so taos-diag A/B comparisons
    // can't mix up runs.
    obs::SetTraceMetadata("bench", bench_name);
    obs::SetTraceMetadata("lock_backend", LockBackendName(SpinLock::backend()));
    obs::SetTraceMetadata(
        "global_lock", Nub::Get().global_lock_mode() ? "global" : "sharded");
    const bool futex = waitq::Parker::DefaultBackend() ==
                       waitq::Parker::Backend::kFutex;
    obs::SetTraceMetadata("parker", futex ? "futex" : "condvar");
    obs::SetRecorderEnabled(true);
  }

  const auto t0 = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::Shutdown();

  std::string gbench_json = "null";
  {
    std::ifstream in(gbench_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (buf.str().find_first_not_of(" \t\r\n") != std::string::npos) {
        gbench_json = buf.str();
      }
      in.close();
      std::remove(gbench_path.c_str());
    }
  }

  if (trace) {
    obs::SetRecorderEnabled(false);
    // The benchmark threads have all joined: the system is quiescent, so the
    // drain sees every published event.
    obs::DrainChromeTraceJsonToFile(trace_path);
    std::cerr << "flight recorder drained to " << trace_path << "\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"" << bench_name << "\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"wall_seconds\": " << wall << ",\n"
      // Honesty stamp: contention claims are only meaningful relative to
      // the cores the run actually had, and to the lock core it exercised.
      << "  \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"lock_backend\": \""
      << LockBackendName(SpinLock::backend()) << "\",\n"
      << "  \"global_lock_mode\": "
      << (Nub::Get().global_lock_mode() ? "true" : "false") << ",\n"
      << "  \"metrics\": " << obs::ReportJson() << ",\n"
      << "  \"benchmark\": " << gbench_json << "\n"
      << "}\n";
  out.close();
  std::cerr << "report written to " << out_path << "\n";
  return 0;
}

}  // namespace taos::benchmain
