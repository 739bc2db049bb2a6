#!/usr/bin/env python3
"""Taos Threads benchmark: builds perfbench from the checkout and runs one workload.

    python3 perfbench/run.py --workload {fastpath,server,contended,explore} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. It builds the taos libraries and the
perfbench binary (CMake, into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench), runs the workload in one process, prints
every metric as "metric <name> <value> <unit>" and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
See perfbench/NOTES.md.
"""

import argparse
import heapq
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fastpath", "server", "contended", "explore")
SETUP_LAUNCHES = 9  # setup_s is the median of this many process launches
PROBE = "perfbench_probe_mutex_pair"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("taos sources (src/) not found next to perfbench/; run from a checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=1200).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def git_rev():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def setup_seconds(binary, workload, seed):
    """Median over several launches of process start to first timed op."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic_ns()
        r = subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                            "--setup-only"], capture_output=True, text=True, timeout=60)
        m = re.search(r"^first_op_ns (\d+)$", r.stdout, re.M)
        if r.returncode != 0 or not m:
            fail(f"setup launch failed: {r.stderr.strip()}", 1)
        samples.append((int(m.group(1)) - t0) / 1e9)
    return statistics.median(samples)


NORETURN = re.compile(r"abort|__cxa_throw|__stack_chk_fail|_Unwind_Resume|__assert_fail"
                      r"|std::__throw_|std::terminate")


def fastpath_path_counts(binary):
    """Instructions and locked operations on the probe's uncontended path.

    Reads the objdump listing of the noinline Acquire/Release probe and takes
    the shortest path from its entry to its return, expanding every direct
    call and tail call into a taos:: function by that function's own
    shortest path. Slow arms (Nub entry, tracing, recorder, first-use
    set-up) all add calls and instructions, so the shortest path is the
    in-line fast path. A static count: one binary always gives one answer.
    """
    r = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-C", "-w", binary],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        fail("objdump failed", 1)
    funcs, names = {}, {}  # start address -> [(addr, text)], start -> name
    cur = None
    for line in r.stdout.splitlines():
        m = re.match(r"^([0-9a-f]+) <(.*)>:$", line)
        if m:
            cur = int(m.group(1), 16)
            funcs[cur], names[cur] = [], m.group(2)
            continue
        m = re.match(r"^\s+([0-9a-f]+):\s+(.*)$", line)
        if m and cur is not None:
            text = re.sub(r"\s+#\s.*$", "", m.group(2)).strip()
            funcs[cur].append((int(m.group(1), 16), text))
    entry = next((a for a, n in names.items() if n == PROBE), None)
    if entry is None:
        fail(f"{PROBE} not found in the binary", 1)

    inf = (float("inf"), 0)
    memo = {}

    def shortest(start):
        """(instructions, locked ops) on the cheapest entry-to-return path."""
        if start in memo:
            return memo[start]
        memo[start] = inf  # recursion is never on the fast path
        body = funcs.get(start, [])
        index = {a: i for i, (a, _) in enumerate(body)}

        def callee(text):
            m = re.search(r"\s([0-9a-f]+) <([^>]*)>$", text)
            if not m:
                return None, ""
            return int(m.group(1), 16), m.group(2)

        def edges(i):
            """Yields (successor index or None for return, cost)."""
            text = body[i][1]
            op = text.split()[0] if text else ""
            if op.startswith("nop") or op == "endbr64" or text == "xchg %ax,%ax":
                yield i + 1, (0, 0)
                return
            own = (1, 1 if op == "lock" or (op.startswith("xchg") and "(" in text) else 0)
            addr, name = callee(text)
            taos_target = addr in funcs and name.startswith("taos::") and "+0x" not in name
            if op.startswith("ret"):
                yield None, own
            elif op.startswith("call"):
                if NORETURN.search(name) or (addr is None and "*" not in text):
                    return
                sub = shortest(addr) if taos_target else (0, 0)
                yield i + 1, (own[0] + sub[0], own[1] + sub[1])
            elif op.startswith("j"):
                inside = addr in index
                if inside:
                    yield index[addr], own
                elif taos_target:
                    sub = shortest(addr)  # tail call
                    yield None, (own[0] + sub[0], own[1] + sub[1])
                if op != "jmp":
                    yield i + 1, own  # conditional: both ways
            elif op in ("ud2", "hlt"):
                return
            else:
                yield i + 1, own

        dist = {0: (0, 0)}
        heap = [((0, 0), 0)]
        best = inf
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist.get(i, inf) or i >= len(body):
                continue
            for j, c in edges(i):
                nd = (d[0] + c[0], d[1] + c[1])
                if j is None:
                    best = min(best, nd)
                elif nd < dist.get(j, inf):
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
        memo[start] = best
        return best

    insns, locked = shortest(entry)
    if insns == float("inf"):
        fail("no return path found through the probe", 1)
    return int(insns), int(locked)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    rev = git_rev()
    setup = None if args.trace else setup_seconds(binary, args.workload, args.seed)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--git-rev", rev]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(build_dir(), f"trace_{args.workload}_{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + 120)
    if r.returncode != 0:
        fail(f"workload process exited {r.returncode}: {r.stderr.strip()}", 1)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing", 1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if not line.startswith("metric "):
            print(line)

    got = dict(result["metrics"])
    if setup is not None:
        got["setup_s"] = {"value": setup, "unit": "s"}
    if args.trace:
        insns, locked = fastpath_path_counts(binary)
        got["threads.fastpath_insns"] = {"value": insns, "unit": "count"}
        got["threads.fastpath_locked_ops"] = {"value": locked, "unit": "count"}
        print(f"trace written to {os.path.relpath(trace_file, ROOT)}")
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in got:
            metrics[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif args.trace:
            # A layer the workload does not exercise did no work on it.
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {name} missing from the {args.workload} run", 1)
    for name, m in metrics.items():
        note = "" if name in got else "  (layer not exercised by this workload)"
        print(f"metric {name} {m['value']} {m['unit']}{note}")
    extra = got.get("latency_samples")
    if extra is not None:
        print(f"info latency_samples {extra['value']} count")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
