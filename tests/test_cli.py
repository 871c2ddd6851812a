import dataclasses
import json
import platform
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from distill_lab import cli, iterate, linalg, optimize
from distill_lab.bundles import read_bundle
from distill_lab.states import WernerParams


def run(argv):
    return cli.main(argv)


SEEDED = {
    "minimize": ["minimize", "--d", "2", "--n", "1", "--beta", "-0.3"],
    "sweep": ["sweep", "--d", "2", "--n", "1", "--beta-grid=-0.5"],
    "verify": ["verify", "--suite", "equivalence"],
    "hessian": ["hessian", "--d", "2", "--samples", "1"],
    "iterate": ["iterate", "--d", "2", "--k", "0", "--beta", "-0.3"],
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are glibc's")
def test_freed_heap_is_reused_without_page_faults(tmp_path):
    # Three 1 MiB arrays freed at the heap top exceed glibc's dynamic trim
    # threshold, so without fixed thresholds each round faults them in anew.
    script = textwrap.dedent(
        f"""
        import resource
        import numpy as np
        from distill_lab import cli

        cli.main(["bound", "--n", "1", "--out", {str(tmp_path / "bound.csv")!r}])

        def churn():
            arrays = [np.ones((256, 256), dtype=np.complex128) for _ in range(3)]
            del arrays

        churn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            churn()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert int(out.stdout.split()[-1]) < 100


class TestExitCodes:
    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_seed_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(SEEDED[command] + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "usage: distill-lab"),
            (SEEDED["minimize"] + ["--seed", "abc"], "argument --seed: not an integer: 'abc'"),
            (["bound", "--n", "0"], "error: --n must lie in 1..64, got 0\n"),
            (["sweep", "--d", "2", "--n", "1", "--beta-grid=abc"], "error: cannot parse --beta-grid 'abc'\n"),
            (["sweep", "--d", "2", "--n", "1", "--beta-grid=,"], "error: --beta-grid is empty\n"),
            (["sweep", "--d", "2", "--n", "1", "--beta-grid=0.5"], "error: every grid value must lie in [-1, 0]\n"),
            (["verify", "--suite", "report"], "error: --suite report requires --in <file>\n"),
        ],
    )
    def test_usage_errors_exit_two(self, argv, message, capsys):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.out + captured.err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(cfg):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "minimize_q", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run(SEEDED["minimize"])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_objective_is_not_a_result(self, monkeypatch):
        # neither exit 0 ("no violation") nor 3 (witness), and not a usage error
        monkeypatch.setattr(optimize, "_lift", lambda x, dims, beta: x * float("nan"))
        with pytest.raises(FloatingPointError, match="non-finite"):
            run(SEEDED["minimize"])


class TestBound:
    def test_table_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert run(["bound", "--n", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# distill-lab v")
        assert "subcommand=bound" in lines[0]
        assert lines[1] == "n,beta0,residual"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert float(rows[0][1]) == -0.5
        assert float(rows[1][1]) == -0.25
        assert all(float(r[2]) < 1e-12 for r in rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "bound.json"
        assert run(["bound", "--n", "2", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["header"]["subcommand"] == "bound"
        assert payload["rows"][1]["beta0"] == -0.25

    def test_bad_range_exits_two(self):
        assert run(["bound", "--n", "0"]) == 2
        assert run(["bound", "--n", "65"]) == 2
        assert run(["bound", "--n", "3", "--tol", "-1"]) == 2
        assert run(["bound", "--n", "3", "--tol", "inf"]) == 2
        assert run(["bound", "--n", "3", "--tol", "nan"]) == 2

    def test_stdout_when_no_out(self, capsys):
        assert run(["bound", "--n", "1"]) == 0
        captured = capsys.readouterr().out
        assert "n,beta0,residual" in captured


class TestMinimize:
    def test_violation_exit_and_bundle(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            [
                "minimize",
                "--d", "2", "--n", "2", "--beta", "-0.6",
                "--restarts", "12", "--out", str(out),
            ]
        )
        assert code == 3
        captured = capsys.readouterr().out
        assert "witness bundle" in captured
        bundles = list(tmp_path.glob("violation-*.bundle"))
        assert len(bundles) == 1
        bundle = read_bundle(bundles[0])
        assert bundle.kind == "minimize-violation"
        payload = json.loads(out.read_text())
        assert payload["header"]["subcommand"] == "minimize"
        assert payload["report"]["best_value"] <= -0.08 + 1e-9

    def test_floor_region_exits_zero(self):
        assert run(["minimize", "--d", "2", "--n", "2", "--beta", "-0.25", "--restarts", "8"]) == 0

    def test_witness_threshold_is_the_certify_tolerance(self, tmp_path, monkeypatch):
        # a minimum between -1e-8 and -1e-9 counts, as it does for iterate
        search = cli.minimize_q
        monkeypatch.setattr(cli, "minimize_q", lambda cfg: dataclasses.replace(search(cfg), best_value=-5e-9))
        argv = ["minimize", "--d", "2", "--n", "2", "--beta", "-0.25", "--restarts", "2"]
        assert run(argv + ["--out", str(tmp_path / "r.json")]) == 3
        assert len(list(tmp_path.glob("violation-*.bundle"))) == 1

    def test_beta_zero_constant_objective(self, capsys):
        assert run(["minimize", "--d", "2", "--n", "2", "--beta", "0", "--restarts", "2"]) == 0
        assert "best_value = 1" in capsys.readouterr().out

    def test_cap_exceeded_exits_two(self):
        assert run(["minimize", "--d", "4", "--n", "5", "--beta", "-0.5"]) == 2

    @pytest.mark.parametrize("beta", ["nan", "inf", "-7"])
    def test_bad_beta_exits_two(self, beta, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["minimize", "--d", "2", "--n", "1", "--beta", beta]) == 2
        assert "beta must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    def test_bad_max_iters_exits_two(self, max_iters, capsys):
        argv = ["minimize", "--d", "2", "--n", "1", "--beta", "-0.3", "--max-iters", max_iters]
        assert run(argv) == 2
        assert "max_iters must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grad_tol", ["inf", "nan", "0", "-1"])
    def test_bad_grad_tol_exits_two(self, grad_tol, capsys):
        # an infinite tolerance would stop every restart at its start
        argv = ["minimize", "--d", "3", "--n", "2", "--beta", "-0.6", "--grad-tol", grad_tol]
        assert run(argv) == 2
        assert "grad_tol must be positive and finite" in capsys.readouterr().err

    def test_threads_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            run(["minimize", "--d", "2", "--n", "1", "--beta", "-0.3", "--threads", "2"])
        assert exc.value.code == 2


class TestSweep:
    def test_sorted_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep", "--d", "3", "--n", "1",
                "--beta-grid=-0.5,-0.6,-0.4",
                "--restarts", "8", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "beta,best_value"
        betas = [float(line.split(",")[0]) for line in lines[2:]]
        assert betas == sorted(betas) == [-0.6, -0.5, -0.4]
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert values[0] == pytest.approx(-0.2, abs=1e-6)
        assert values[1] == pytest.approx(0.0, abs=1e-6)

    def test_empty_grid_exits_two(self):
        assert run(["sweep", "--d", "2", "--n", "1", "--beta-grid", ",", "--restarts", "2"]) == 2

    def test_out_of_range_grid_exits_two(self):
        assert run(["sweep", "--d", "2", "--n", "1", "--beta-grid=0.5", "--restarts", "2"]) == 2


class TestVerify:
    def test_equivalence_suite_passes(self, tmp_path, capsys):
        code = run(["verify", "--suite", "equivalence", "--bundle-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[ok] sandwich-subset-sum" in out
        assert "checks passed" in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(["minimize", "--d", "3", "--n", "1", "--beta", "-0.5", "--restarts", "6", "--out", str(out)])
        capsys.readouterr()
        assert run(["verify", "--suite", "report", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "[ok] value-reproduces" in printed
        assert printed.splitlines()[-1] == "2/2 checks passed"

    def test_edited_report_fails_value_check(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(["minimize", "--d", "2", "--n", "1", "--beta", "-0.3", "--restarts", "2", "--out", str(out)])
        payload = json.loads(out.read_text())
        report = payload["report"]
        # shift the best value and its restart's record together, so only
        # the recomputation from the stored point can tell
        best = min(report["per_restart"], key=lambda r: r["final_value"])
        report["best_value"] -= 0.01
        best["final_value"] = report["best_value"]
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["verify", "--suite", "report", "--in", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] value-reproduces")
        assert lines[1].startswith("[ok] best-matches-restarts")
        assert lines[2] == "1/2 checks passed"

    def test_report_suite_requires_input(self):
        assert run(["verify", "--suite", "report"]) == 2

    @pytest.mark.parametrize(
        "content",
        [None, "not json", "[]", '{"report": {"best_value": 0.5}}', "stop_reason=bogus"],
    )
    def test_unloadable_report_exits_two(self, content, tmp_path, capsys):
        path = tmp_path / "report.json"
        if content == "stop_reason=bogus":
            run(["minimize", "--d", "2", "--n", "1", "--beta", "-0.3", "--restarts", "2", "--out", str(path)])
            payload = json.loads(path.read_text())
            payload["report"]["per_restart"][1]["stop_reason"] = "bogus"
            content = json.dumps(payload)
            capsys.readouterr()
        if content is not None:
            path.write_text(content)
        assert run(["verify", "--suite", "report", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load report")


    @pytest.mark.parametrize("keep", [0, 2])
    def test_report_missing_restart_records_exits_two(self, keep, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(["minimize", "--d", "2", "--n", "1", "--beta", "-0.3", "--restarts", "3", "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["report"]["per_restart"] = payload["report"]["per_restart"][:keep]
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["verify", "--suite", "report", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load report")
        assert f"{keep} per-restart records for 3 restarts" in err


class TestHessian:
    def test_csv_rows_and_summary(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run(
            ["hessian", "--d", "2", "--samples", "5", "--out", str(out), "--bundle-dir", str(tmp_path)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "point_id,seed,d,beta,min_eigenvalue"
        assert len(lines) == 2 + 5 + 1
        assert lines[-1].startswith("# summary global_min_eigenvalue=")

    def test_single_sample(self, tmp_path):
        out = tmp_path / "h1.csv"
        assert run(["hessian", "--d", "2", "--samples", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_byte_identical_reruns(self, tmp_path, capsys):
        # command -> (arguments, the --out file compared, or None for stdout)
        runs = {
            "hessian": (["--d", "2", "--samples", "10"], "h.csv"),
            "minimize": (["--d", "2", "--n", "2", "--beta", "-0.6", "--restarts", "4"], "m.json"),
            "sweep": (["--d", "2", "--n", "2", "--beta-grid=-0.6,-0.3", "--restarts", "4"], "s.csv"),
            "iterate": (["--d", "2", "--k", "2", "--beta", "-0.25", "--restarts", "4"], None),
            "verify": (["--suite", "all"], None),
        }
        for command, (args, out) in runs.items():
            outputs = []
            for rerun in ("a", "b"):
                rerun_dir = tmp_path / f"{command}-{rerun}"
                rerun_dir.mkdir()
                argv = [command, *args, "--seed", "77"]
                argv += ["--out", str(rerun_dir / out)] if out else ["--bundle-dir", str(rerun_dir)]
                run(argv)
                output = capsys.readouterr().out.encode()
                if out:
                    output = (rerun_dir / out).read_bytes()
                if command == "minimize":
                    # the one field a rerun may change
                    payload = json.loads(output)
                    payload["report"]["wall_time_s"] = 0.0
                    output = json.dumps(payload).encode()
                outputs.append(output)
            assert outputs[0] == outputs[1], command

    def test_csv_does_not_depend_on_block_size(self, tmp_path, monkeypatch):
        # 202 Hessians of side 18 a block: 450 samples take three blocks
        assert list(linalg._sample_blocks(450, 16 * 18**2)) == [202, 202, 46]
        argv = ["hessian", "--d", "3", "--samples", "450", "--seed", "78", "--out"]
        run(argv + [str(tmp_path / "default.csv")])
        monkeypatch.setattr(linalg, "LIFT_BLOCK_BYTES", 1)
        run(argv + [str(tmp_path / "single.csv")])
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()

    def test_cap_exits_two(self):
        assert run(["hessian", "--d", "5", "--samples", "1"]) == 2

    @pytest.mark.parametrize("beta", ["nan", "inf", "5"])
    def test_bad_beta_exits_two(self, beta, tmp_path, capsys):
        argv = ["hessian", "--d", "2", "--samples", "3", "--beta", beta, "--bundle-dir", str(tmp_path)]
        assert run(argv) == 2
        assert "beta must lie in [-1, 1]" in capsys.readouterr().err


class TestIterate:
    def test_distillable_exits_three(self, tmp_path, capsys):
        code = run(
            ["iterate", "--d", "2", "--k", "0", "--beta", "-0.7", "--restarts", "6",
             "--bundle-dir", str(tmp_path)]
        )
        assert code == 3
        out = capsys.readouterr().out
        files = list(tmp_path.glob("witness-*.bundle"))
        assert len(files) == 1
        assert f"witness bundle: {files[0]}" in out

    def test_floor_region_exits_zero(self):
        assert run(["iterate", "--d", "3", "--k", "1", "--beta", "-0.25", "--restarts", "6"]) == 0

    def test_oversized_certification_exits_two(self):
        assert run(["iterate", "--d", "3", "--k", "3", "--beta", "-0.25"]) == 2

    def test_huge_k_exits_two_at_once(self, capsys):
        start = time.perf_counter()
        assert run(["iterate", "--d", "3", "--k", "24", "--beta", "-0.25"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "24 doubling steps exceed the search cap 256" in capsys.readouterr().err

    def test_bad_search_settings_exit_two_before_any_step(self, capsys):
        assert run(["iterate", "--d", "2", "--k", "1", "--beta", "-0.25", "--restarts", "0"]) == 2
        captured = capsys.readouterr()
        assert "step" not in captured.out
        assert "need at least one restart" in captured.err

    def test_small_unit_norm_minimum_is_a_witness(self, tmp_path, capsys, monkeypatch):
        # q = -1e-7 on the unit-norm functional is -4.5e-11 once scaled by the
        # normalization 47.25^2: the sign is decided before the scaling
        search = iterate.minimize_q
        reports = []

        def shifted(cfg):
            reports.append(dataclasses.replace(search(cfg), best_value=-1e-7))
            return reports[-1]

        monkeypatch.setattr(iterate, "minimize_q", shifted)
        code = run(
            ["iterate", "--d", "7", "--k", "1", "--beta", "-0.25", "--restarts", "2",
             "--bundle-dir", str(tmp_path)]
        )
        assert code == 3
        out = capsys.readouterr().out
        scaled = -1e-7 / WernerParams(7, -0.25).normalization**2
        assert f"min quadratic form = {cli._fmt(scaled)}" in out
        files = list(tmp_path.glob("witness-k1-*.bundle"))
        assert len(files) == 1
        assert f"witness bundle: {files[0]}" in out
        bundle = read_bundle(files[0])
        point = reports[0].best_point
        assert bundle.kind == "distillation-witness"
        assert bundle.params == {
            "d": 7, "n": 2, "beta": -0.25, "seed": reports[0].config.seed, "min_value": scaled,
            "sigma1": point.sigma1, "sigma2": point.sigma2,
        }
        for name in ("u1", "v1", "u2", "v2"):
            assert np.array_equal(bundle.vectors[name], getattr(point, name))

    def test_unmaterialized_side_writes_witness_bundle(self, tmp_path, capsys):
        code = run(
            ["iterate", "--d", "9", "--k", "1", "--beta", "-0.9", "--restarts", "2",
             "--bundle-dir", str(tmp_path)]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "too large to materialize" in out
        files = list(tmp_path.glob("witness-k1-*.bundle"))
        assert len(files) == 1
        assert f"witness bundle: {files[0]}" in out
        assert read_bundle(files[0]).params["n"] == 2


class TestDemoNonconvexity:
    def test_reports_cosine_one(self, capsys):
        assert run(["demo-nonconvexity", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "cosine to sparse pattern = 1" in out
        assert "endpoint gradient maxima = 0, 0" in out

    @pytest.mark.parametrize("beta", ["nan", "inf", "5"])
    def test_bad_beta_exits_two(self, beta, capsys):
        assert run(["demo-nonconvexity", "--d", "3", "--beta", beta]) == 2
        assert "beta must lie in [-1, 1]" in capsys.readouterr().err


    def test_side_past_the_cap_exits_two(self, capsys):
        # d * d = 66049 exceeds DEFAULT_DIM_CAP = 2^16; refused before any array is built
        assert run(["demo-nonconvexity", "--d", "257"]) == 2
        assert "exceeds cap 65536" in capsys.readouterr().err
