import json

import pytest

from distill_lab import cli
from distill_lab.bundles import read_bundle


def run(argv):
    return cli.main(argv)


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
        assert "[ok] value-reproduces" in capsys.readouterr().out

    def test_report_suite_requires_input(self):
        assert run(["verify", "--suite", "report"]) == 2


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

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["hessian", "--d", "2", "--samples", "10", "--seed", "77", "--out", str(a)])
        run(["hessian", "--d", "2", "--samples", "10", "--seed", "77", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_cap_exits_two(self):
        assert run(["hessian", "--d", "5", "--samples", "1"]) == 2


class TestIterate:
    def test_distillable_exits_three(self, tmp_path, capsys):
        code = run(
            ["iterate", "--d", "2", "--k", "0", "--beta", "-0.7", "--restarts", "6",
             "--bundle-dir", str(tmp_path)]
        )
        assert code == 3
        assert "witness" in capsys.readouterr().out
        assert list(tmp_path.glob("witness-*.bundle"))

    def test_floor_region_exits_zero(self):
        assert run(["iterate", "--d", "3", "--k", "1", "--beta", "-0.25", "--restarts", "6"]) == 0

    def test_oversized_certification_exits_two(self):
        assert run(["iterate", "--d", "3", "--k", "3", "--beta", "-0.25"]) == 2


class TestDemoNonconvexity:
    def test_reports_cosine_one(self, capsys):
        assert run(["demo-nonconvexity", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "cosine to sparse pattern = 1" in out
        assert "endpoint gradient maxima = 0, 0" in out


class TestThreadResolution:
    def test_env_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("DISTILL_LAB_THREADS", "2")
        assert cli._resolve_threads(8) == 2

    def test_flag_used_without_env(self, monkeypatch):
        monkeypatch.delenv("DISTILL_LAB_THREADS", raising=False)
        assert cli._resolve_threads(8) == 8

    def test_defaults_to_one_thread(self, monkeypatch):
        monkeypatch.delenv("DISTILL_LAB_THREADS", raising=False)
        assert cli._resolve_threads(None) == 1
