// explore: a fixed list of model::Explorer DFS runs on the Firefly
// simulator, each with a known verdict. Finite trees are explored to
// exhaustion; larger ones under a fixed schedule budget. A pass over the
// list is one "time to all verdicts" (verdict_s); an op is one verdict.
//
// Correctness: every clean litmus reports 0 violations (and the exhaustive
// ones exhaust), every planted bug is found, and its counterexample replays
// to the same verdict. The seed orders the list and seeds the direct
// Machine::Run of each litmus that prices a simulator step.

#include <sched.h>

#include <algorithm>
#include <random>

#include "perfbench/src/bench.h"
#include "src/firefly/machine.h"
#include "src/model/explorer.h"
#include "src/model/litmus.h"
#include "src/spec/checker.h"
#include "src/threads/nub.h"

namespace perfbench {
namespace {

namespace firefly = taos::firefly;
namespace model = taos::model;
namespace spec = taos::spec;

constexpr std::uint64_t kBudget = 250;  // schedules for the budgeted trees

enum class Expect { kExhaustedClean, kBudgetClean, kBugFound };

struct Litmus {
  const char* name;
  model::LitmusFactory (*make)();
  int cpus;
  std::uint64_t max_runs;
  bool check_traces;
  Expect expect;
  const char* bug_text;  // substring of the planted bug's verdict
};

const Litmus kList[] = {
    {"poll_double_grant_safe", [] { return model::PollDoubleGrantLitmus(true); }, 3, 60000,
     false, Expect::kExhaustedClean, ""},
    {"poll_double_grant_bug", [] { return model::PollDoubleGrantLitmus(false); }, 3, 60000,
     false, Expect::kBugFound, "double grant"},
    {"mcs_abandon_safe", [] { return model::McsTimeoutAbandonLitmus(true); }, 2, 60000, false,
     Expect::kExhaustedClean, ""},
    {"mcs_abandon_bug", [] { return model::McsTimeoutAbandonLitmus(false); }, 2, 60000, false,
     Expect::kBugFound, "lost handoff"},
    {"mutual_exclusion_2_1", [] { return model::MutualExclusionLitmus(2, 1); }, 2, kBudget,
     false, Expect::kBudgetClean, ""},
    {"rw_writer_starvation_1_1", [] { return model::RwWriterStarvationLitmus(1, 1); }, 2,
     kBudget, false, Expect::kBudgetClean, ""},
    {"wakeup_race_no_eventcount", [] { return model::WakeupRaceLitmus(false); }, 2, 30000,
     false, Expect::kBugFound, "stuck"},
    {"alert_wait_race_checked", [] { return model::AlertWaitRaceLitmus(); }, 3, kBudget, true,
     Expect::kBudgetClean, ""},
};
constexpr std::size_t kNumLitmus = sizeof(kList) / sizeof(kList[0]);

struct PassStats {
  std::uint64_t schedules[kNumLitmus] = {};
  std::size_t max_depth = 0;
  double explore_s = 0;
  std::uint64_t steps = 0;
  double run_s = 0;
  std::uint64_t traces = 0, actions = 0;
  double check_s = 0;
  double verdict_us[kNumLitmus] = {};
};

double Since(std::uint64_t t0) { return static_cast<double>(NowNs() - t0) / 1e9; }

// One litmus to its verdict; returns whether the verdict is the known one.
bool Verdict(const Litmus& l, std::uint64_t seed, PassStats* ps) {
  model::ExplorerOptions o;
  o.machine.cpus = l.cpus;
  o.max_runs = l.max_runs;
  o.check_traces = l.check_traces;
  const model::Explorer ex(o);
  const model::LitmusFactory factory = l.make();
  const std::size_t idx = static_cast<std::size_t>(&l - kList);
  const std::uint64_t t0 = NowNs();
  model::ExplorationResult res;
  {
    Scope s("explorer.explore", Layer::kModel);
    res = ex.Explore(factory);
  }
  ps->explore_s += Since(t0);
  ps->schedules[idx] = res.runs;
  ps->max_depth = std::max(ps->max_depth, res.max_depth);
  bool ok = false;
  switch (l.expect) {
    case Expect::kExhaustedClean: ok = res.exhausted && res.violations == 0; break;
    case Expect::kBudgetClean: ok = res.violations == 0 && (res.exhausted || res.runs == l.max_runs); break;
    case Expect::kBugFound: ok = res.violations > 0 && res.first_violation.find(l.bug_text) != std::string::npos; break;
  }
  // Replay the counterexample (or the first schedule of a clean tree) and
  // spec-check its trace; a planted bug must replay to the same verdict.
  std::vector<spec::Action> actions;
  std::string replayed;
  {
    Scope s("explorer.replay", Layer::kModel);
    replayed = ex.Replay(factory, res.counterexample, &actions);
  }
  if (l.expect == Expect::kBugFound) ok = ok && replayed == res.first_violation;
  const std::uint64_t c0 = NowNs();
  {
    Scope s("checker.check", Layer::kSpec);
    const spec::CheckResult cr = spec::TraceChecker(o.spec_config).CheckTrace(actions);
    if (l.expect != Expect::kBugFound && l.check_traces) ok = ok && cr.ok;
  }
  ps->check_s += Since(c0);
  ++ps->traces;
  ps->actions += actions.size();
  ps->verdict_us[idx] = Since(t0) * 1e6;

  // One direct seeded run on the simulator prices a step.
  firefly::MachineConfig mc;
  mc.cpus = l.cpus;
  mc.seed = seed + idx;
  const std::uint64_t r0 = NowNs();
  {
    Scope s("machine.run", Layer::kFirefly);
    firefly::Machine m(mc);
    std::unique_ptr<model::LitmusTest> test = factory();
    test->Setup(m);
    const firefly::RunResult rr = m.Run();
    ps->steps += rr.steps;
    const std::string v = test->Verify(rr);
    if (l.expect != Expect::kBugFound) ok = ok && v.empty();
    test.reset();
  }
  ps->run_s += Since(r0);
  return ok;
}

}  // namespace

void Explore(const Args& args, Result* r) {
  // One fiber runs at a time, and every simulated step hands off between OS
  // threads. Unpinned, each handoff is a cross-CPU wakeup whose latency is
  // the host's: on a shared 4-CPU VM verdict_s swung from 1.3 s to 6.7 s
  // with steal time. Pinned to one CPU (the last the process may use, which
  // the fiber threads inherit) a handoff is a local switch: 0.66-0.71 s.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      break;
    }
  }
  std::vector<const Litmus*> order;
  for (const Litmus& l : kList) order.push_back(&l);
  std::mt19937_64 rng(args.seed);
  std::shuffle(order.begin(), order.end(), rng);
  if (!StartTimed(args)) return;

  const std::uint64_t start = NowNs();
  const auto until = [&](double sec) { return start + static_cast<std::uint64_t>(sec * 1e9); };
  const double half = args.seconds / 2;
  Progress& prog = GlobalProgress();
  std::vector<double> pass_s[2], verdict_us[kNumLitmus];
  PassStats first, traced;
  const Usage u0 = ReadUsage();
  const obs::Stats s0 = obs::Snapshot();
  const std::uint64_t nub0 = taos::Nub::Get().nub_entries.load();
  obs::Stats first_half;
  double first_nub = 0, first_vcsw = 0, rss_first_pass = 0;
  std::uint64_t verdicts = 0;
  bool deterministic = true;
  // Whole passes only; at least one (two when traced: one per half).
  for (int half_i = 0; half_i < (args.trace ? 2 : 1); ++half_i) {
    const std::uint64_t end = until(args.trace && half_i == 0 ? half : args.seconds);
    Tracer::Get().Enable(half_i == 1);
    for (bool once = true; once || NowNs() < end; once = false) {
      PassStats ps;
      const std::uint64_t p0 = NowNs();
      {
        Scope pass("pass", Layer::kBench);
        for (const Litmus* l : order) {
          prog.attempted += 1;
          ++r->attempted;
          if (!Verdict(*l, args.seed, &ps)) r->Fail(1);
          prog.completed += 1;
          ++verdicts;
        }
      }
      pass_s[half_i].push_back(Since(p0));
      for (std::size_t i = 0; i < kNumLitmus && half_i == 0; ++i) verdict_us[i].push_back(ps.verdict_us[i]);
      // Every fiber is an OS thread, and every thread's obs cell lives for
      // the rest of the process, so RSS grows with each pass; the memory
      // metric is taken at a fixed amount of work: all verdicts once.
      if (rss_first_pass == 0) rss_first_pass = PeakRssMb();
      PassStats& keep = half_i == 0 ? first : traced;
      if (keep.traces == 0) {
        keep = ps;
      } else {
        for (std::size_t i = 0; i < kNumLitmus; ++i) deterministic &= keep.schedules[i] == ps.schedules[i];
        deterministic &= keep.steps == ps.steps;
      }
    }
    if (half_i == 0) {
      first_half = Delta(obs::Snapshot(), s0);
      first_nub = static_cast<double>(taos::Nub::Get().nub_entries.load() - nub0);
      first_vcsw = ReadUsage().voluntary_switches - u0.voluntary_switches;
    }
  }
  Tracer::Get().Enable(false);
  const Usage u1 = ReadUsage();
  // Schedule counts and simulator steps are pure functions of the code and
  // the seed; a pass that differs from the first is a failure.
  if (!deterministic) r->Fail(1);

  if (!args.trace) {
    const double v = QuietTime(pass_s[0]);
    r->Add("ops_per_s", static_cast<double>(kNumLitmus) / v, "1/s");
    // Each litmus is timed by its median over the passes; the percentiles
    // run over the list (p99 is the slowest litmus).
    std::vector<double> per_litmus;
    for (const auto& times : verdict_us) per_litmus.push_back(QuietTime(times));
    r->Add("latency_p50_us", Quantile(per_litmus, 0.5), "us");
    r->Add("latency_p99_us", Quantile(per_litmus, 0.99), "us");
    r->Add("cpu_us_per_op", PerOp((u1.cpu_s - u0.cpu_s) * 1e6, static_cast<double>(verdicts)), "us");
    r->Add("verdict_s", v, "s");
    r->Add("peak_rss_mb", rss_first_pass, "MB");
    r->Add("latency_samples", static_cast<double>(verdicts), "count");
    return;
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumLitmus; ++i) {
    r->Add(std::string("model.schedules.") + kList[i].name, static_cast<double>(first.schedules[i]),
           "count");
    total += first.schedules[i];
  }
  r->Add("model.schedules", static_cast<double>(total), "count");
  r->Add("model.schedule_us", PerOp(first.explore_s * 1e6, static_cast<double>(total)), "us");
  r->Add("model.max_depth", static_cast<double>(first.max_depth), "count");
  r->Add("firefly.steps", static_cast<double>(first.steps), "count");
  r->Add("firefly.step_ns", PerOp(first.run_s * 1e9, static_cast<double>(first.steps)), "ns");
  r->Add("spec.check_us_per_trace", PerOp(first.check_s * 1e6, static_cast<double>(first.traces)), "us");
  r->Add("spec.actions_per_trace", PerOp(static_cast<double>(first.actions), static_cast<double>(first.traces)),
         "count");
  r->Add("latency_samples", static_cast<double>(verdicts), "count");
  r->Add("obs.trace_overhead_ratio", QuietTime(pass_s[1]) / QuietTime(pass_s[0]), "ratio");
  ObsLayerMetrics(first_half, first_nub, static_cast<double>(kNumLitmus * pass_s[0].size()),
                  first_vcsw, r);
  SelfTimeMetrics(Tracer::Get().Analyze(), static_cast<double>(kNumLitmus * pass_s[1].size()), r);
  LayerProbes(r);
}

}  // namespace perfbench
