#!/usr/bin/env python3
"""The benchmark's own tests. Run from the checkout root:

    python3 perfbench/tests/test_perfbench.py

They build perfbench (as run.py does) and check that the configuration
stamp is read from the runtime, and that the exact counts repeat.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  perfbench/run.py

BINARY = None


def stamp(env_extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("TAOS_NUB_GLOBAL_LOCK", "TAOS_WAITQ", "TAOS_LOCK")}
    env.update(env_extra)
    r = subprocess.run([BINARY, "--workload", "fastpath", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    line = next(l for l in r.stdout.splitlines() if l.startswith("stamp "))
    return json.loads(line[len("stamp "):]), json.loads(r.stdout.strip().splitlines()[-1])


def traced(workload, seed=7):
    r = subprocess.run([sys.executable, run.__file__, "--workload", workload, "--seed", str(seed),
                        "--seconds", "2", "--trace", "1"], capture_output=True, text=True,
                       timeout=300, cwd=run.ROOT)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


class StampTest(unittest.TestCase):
    def test_global_lock_yes_is_stamped_true(self):
        # The Nub treats any non-empty value but "0" as global mode; a stamp
        # that re-parsed the variable as v[0]=='1' would say false here.
        s, result = stamp({"TAOS_NUB_GLOBAL_LOCK": "yes"})
        self.assertTrue(s["global_lock_mode"])
        self.assertTrue(result["correct"])

    def test_default_configuration(self):
        s, _ = stamp({})
        self.assertFalse(s["global_lock_mode"])
        self.assertEqual(s["lock_backend"], "tas")
        self.assertEqual(s["nproc"], len(os.sched_getaffinity(0)))
        for key in ("waitq_mode", "parker_backend", "build_type", "compiler", "git_rev"):
            self.assertIn(key, s)

    def test_lock_backend_and_waitq_come_from_the_runtime(self):
        s, _ = stamp({"TAOS_LOCK": "mcs", "TAOS_WAITQ": "1"})
        self.assertEqual(s["lock_backend"], "mcs")
        self.assertTrue(s["waitq_mode"])


class ExactCountsTest(unittest.TestCase):
    def test_fastpath_counts_repeat_and_nub_stays_out(self):
        a, b = traced("fastpath"), traced("fastpath")
        for name in ("threads.fastpath_insns", "threads.fastpath_locked_ops"):
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
            self.assertGreater(a["metrics"][name]["value"], 0, name)
        self.assertEqual(a["metrics"]["threads.nub_entries_per_op"]["value"], 0)
        self.assertEqual(a["failed"], 0)

    def test_explore_schedules_and_steps_repeat(self):
        a, b = traced("explore"), traced("explore")
        names = [n for n in a["metrics"] if n.startswith("model.schedules") or n == "firefly.steps"]
        self.assertGreater(len(names), 2)
        for name in names:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
        self.assertTrue(a["correct"] and b["correct"])


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
