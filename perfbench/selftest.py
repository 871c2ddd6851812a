"""Self-test of the benchmark harness (not of distill-lab).

    python3 perfbench/selftest.py

The last case runs every workload once, briefly, so the whole test takes
about as long as one pass of each workload (a minute and a half on 2 CPUs).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command, Workload, check_command, command_seed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class SeedDerivation(unittest.TestCase):
    def test_workload_seed_changes_every_command_seed(self):
        for w in WORKLOADS.values():
            for position, cmd in enumerate(w.commands):
                a = cmd.argv(command_seed(w.name, 1, 0, position), Path("."))
                b = cmd.argv(command_seed(w.name, 2, 0, position), Path("."))
                self.assertNotEqual(a, b, w.name)

    def test_same_seed_same_argv(self):
        self.assertEqual(command_seed("oracles", 7, 1, 2), command_seed("oracles", 7, 1, 2))


class FailureCounting(unittest.TestCase):
    def setUp(self):
        run.STATE.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE))
        self.addCleanup(shutil.rmtree, self.tmp, True)
        self.digests = run.Digests(self.tmp / "digests.json", "selftest")

    def _pass(self, cmd: Command):
        workload = Workload("selftest", (cmd,), min_passes=1, layers=())
        return run.run_pass(workload, 1, 0, self.tmp / f"p{len(list(self.tmp.iterdir()))}", self.digests)

    def test_correct_command_passes(self):
        result = self._pass(Command("minimize", ("--d", "2", "--n", "2", "--beta", "-0.25",
                                                 "--restarts", "2"), restarts=2, out="m.json"))
        self.assertEqual((result.attempted, result.failed), (1, 0), result.problems)

    def test_wrong_exit_code_counts_as_failed(self):
        result = self._pass(Command("minimize", ("--d", "2", "--n", "2", "--beta", "-0.25",
                                                 "--restarts", "2"), expect=3, restarts=2, out="m.json"))
        self.assertEqual((result.attempted, result.failed), (1, 1))
        self.assertIn("exit code 0, expected 3", result.problems[0])

    def test_perturbed_report_fails(self):
        cmd = Command("minimize", ("--d", "2", "--n", "2", "--beta", "-0.25", "--restarts", "2"),
                      out="m.json")
        pass_dir = self.tmp / "perturbed"
        pass_dir.mkdir()
        rc, stdout, _ = run.run_command(cmd.argv(5, pass_dir))
        self.assertEqual(check_command(cmd, rc, stdout, pass_dir, 5), [])
        data = json.loads((pass_dir / "m.json").read_text())
        data["report"]["best_value"] += 1e-6
        (pass_dir / "m.json").write_text(json.dumps(data))
        self.assertTrue(any("re-evaluates" in p for p in check_command(cmd, rc, stdout, pass_dir, 5)))

    def test_perturbed_stdout_fails(self):
        verify = Command("verify", ("--suite", "equivalence"))
        self.assertEqual(check_command(verify, 0, "3/3 checks passed\n", self.tmp, 0), [])
        self.assertNotEqual(check_command(verify, 0, "2/3 checks passed\n", self.tmp, 0), [])
        iterate = Command("iterate", ("--d", "2", "--k", "1", "--beta", "-0.25"))
        self.assertEqual(check_command(iterate, 0, "k=1 (2 copies): min quadratic form = 0.1\n",
                                       self.tmp, 0), [])
        self.assertNotEqual(check_command(iterate, 0, "k=1 (2 copies): min quadratic form = -0.1\n",
                                          self.tmp, 0), [])

    def test_changed_csv_bytes_fail(self):
        csv = self.tmp / "out.csv"
        csv.write_text("a\n1\n")
        self.assertEqual(self.digests.check("k", csv), [])
        self.assertEqual(self.digests.check("k", csv), [])
        csv.write_text("a\n2\n")
        self.assertNotEqual(self.digests.check("k", csv), [])


class MetricNames(unittest.TestCase):
    def test_names_are_valid_and_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for name in [*run.END_TO_END, *tracing.PER_LAYER, *WORKLOADS]:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for group, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
            for m in spec[group]:
                self.assertEqual((m["unit"], m["better"]), table[m["name"]])


class ShortRuns(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0", "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=180,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stdout.splitlines()[-2])
            self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), result)


if __name__ == "__main__":
    unittest.main()
