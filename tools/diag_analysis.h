// Offline analysis behind the taos-diag CLI: turns the artifacts the
// runtime already emits — flight-recorder Chrome traces (recorder.h) and
// BENCH_*.json reports (bench/bench_main.h) — into contention diagnoses:
// which objects threads waited on and for how long (holder vs waiter side),
// how long wakeups took from the waker's grant to the wakee running
// (the flow edges recorder.cc stamps), the longest wake-causality handoff
// chains, and how hard Broadcasts stampede.
//
// Kept as a library (taos_diag_core) separate from the CLI so the golden
// test (tests/taos_diag_golden_test.cc) can run the exact analysis over a
// checked-in trace. Everything here is deterministic in its input: no
// clocks, no environment.

#ifndef TAOS_TOOLS_DIAG_ANALYSIS_H_
#define TAOS_TOOLS_DIAG_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace taos::diagtool {

// Per-object wait attribution. "Waiter side" is the blocking ops (Acquire,
// Wait, P, AlertWait, AlertP) whose duration contains the de-scheduled
// time; "holder side" is the ops a holder runs against the object (Release,
// V, Signal, Broadcast).
struct ObjStats {
  std::uint64_t obj = 0;
  std::uint64_t wait_count = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t max_wait_ns = 0;
  std::uint64_t holder_count = 0;
  std::uint64_t holder_ns = 0;
  // op name -> count, sorted by name (deterministic).
  std::vector<std::pair<std::string, std::uint64_t>> waiter_ops;
};

// One completed wakeup-causality edge: the waker's Unpark and the wakee's
// ParkResume carrying the same nonzero flow id.
struct FlowEdge {
  std::uint64_t flow = 0;
  std::uint64_t waker_tid = 0;
  std::uint64_t wakee_tid = 0;
  std::uint64_t grant_ns = 0;    // Unpark ts: the permit-grant instant
  std::uint64_t latency_ns = 0;  // ParkResume dur: grant to running
  std::uint64_t resume_ns() const { return grant_ns + latency_ns; }
};

// A handoff chain: wake edges where each link's waker is the previous
// link's wakee and runs after it resumed (t1 wakes t2, t2 then wakes t3...).
struct HandoffChain {
  std::vector<FlowEdge> links;
  std::uint64_t span_ns = 0;  // first grant to last resume
};

struct BroadcastStats {
  std::uint64_t broadcasts = 0;         // Broadcast events seen
  std::uint64_t waking_broadcasts = 0;  // ... that granted >= 1 permit
  std::uint64_t woken_total = 0;        // permits granted inside their slices
  std::uint64_t max_woken = 0;
  // Threads woken per waking broadcast — the stampede ratio. A broadcast
  // that wakes W threads into one free mutex makes W-1 of them requeue.
  double StampedeRatio() const {
    return waking_broadcasts == 0
               ? 0.0
               : static_cast<double>(woken_total) /
                     static_cast<double>(waking_broadcasts);
  }
};

struct TraceAnalysis {
  std::uint64_t total_events = 0;  // "X" events
  std::uint64_t dropped_events = 0;
  // otherData string pairs (lock_backend, parker, ... — SetTraceMetadata).
  std::vector<std::pair<std::string, std::string>> metadata;
  std::vector<ObjStats> objects;  // sorted by wait_ns descending, obj asc
  std::vector<FlowEdge> edges;    // matched pairs, sorted by grant_ns
  std::uint64_t unmatched_unparks = 0;
  std::uint64_t unmatched_resumes = 0;
  BroadcastStats broadcast;
  std::vector<HandoffChain> chains;  // longest first, at most kMaxChains
};

inline constexpr std::size_t kMaxChains = 3;

// Parses and analyzes a drained Chrome trace. Returns false (with *error
// set) if the text is not a trace the recorder could have produced.
bool AnalyzeTraceJson(const std::string& text, TraceAnalysis* out,
                      std::string* error);

// Renders the analysis; `top` caps the contended-object table.
std::string FormatTraceReport(const TraceAnalysis& analysis, std::size_t top);

// Summarizes a BENCH_*.json report: the run's configuration stamps plus the
// latency histograms that matter for wakeup diagnosis (wakeup_latency_ns,
// unpark_ns, blocked_ns, lock_handoff_ns) and the handoff counters.
// Returns false (with *error set) if the document lacks the bench shape.
bool FormatBenchReport(const std::string& text, std::string* out,
                       std::string* error);

}  // namespace taos::diagtool

#endif  // TAOS_TOOLS_DIAG_ANALYSIS_H_
