"""Batch front-end: artifacts, schemas, exit codes, determinism."""

import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fmopt import cli, diagnostics, fem2d, model, penalty, saddle
from fmopt.cli import run
from fmopt.model import InvalidInstance, NumericalFailure, ProblemInstance
from fmopt.saddle import SolverConfig

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def assert_reports_lambda_min(message, instance):
    """The lambda_min in a "stiffness singular" message is that of A(E), rebuilt after the
    in-place factorization; A(E) of these instances is singular at every E."""
    reported = float(message.rsplit("lambda_min ~ ", 1)[1].rstrip(")"))
    lam = np.linalg.eigvalsh(penalty.assemble_dense(instance, instance.start_material().dense())[0])
    assert reported == pytest.approx(lam[0], abs=1e-12 * max(lam[-1], 1.0))


def assert_every_cell_and_field_filled(report, csv_path):
    """No empty column: every CSV cell is a finite float and every violation,
    feasibility and certificate field of the report is present."""
    for row in csv_path.read_text().splitlines()[1:]:
        assert all(np.isfinite(float(cell)) for cell in row.split(","))
    for field in ("const", "feasible", "violation_literal", "violation_positive", "certificate"):
        assert report[field] is not None, field


def run_fmopt(tmp_path, *args):
    """fmopt as a user runs it, in a subprocess, so that numpy's overflow
    warnings stay warnings (in-process, pytest's ``filterwarnings = error``
    would raise them); returns the exit code and the JSON error, which must
    be all of stderr, one line."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "fmopt.cli", *args, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return proc.returncode, json.loads(lines[0])


@pytest.fixture
def instance_file(tmp_path, tiny_mesh_instance):
    path = tmp_path / "tiny.fmo"
    fem2d.write_instance(tiny_mesh_instance, path)
    return path


class TestRun:
    def test_csv_row_count_and_feasibility(self, tmp_path, tiny_mesh_instance):
        cfg = SolverConfig(iterations=10, log_stride=1)
        report = run(cfg, tiny_mesh_instance, str(tmp_path / "r"))
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 11  # header + one row per iteration
        assert lines[0].startswith("t,objective,")
        state = fem2d.read_state(tmp_path / "r_state.txt")
        from fmopt.model import feasible_E

        ok, _ = feasible_E(tiny_mesh_instance, state)
        assert ok
        assert report["m"] == 1

    def test_report_mirrors_table_schema(self, tmp_path, tiny_mesh_instance):
        cfg = SolverConfig(iterations=5, log_stride=5)
        report = run(cfg, tiny_mesh_instance, str(tmp_path / "r"))
        for key in ("m", "N", "L", "nig", "obj0", "cpu", "obj", "const"):
            assert key in report
        assert report["obj0"] == pytest.approx(float(np.sum(tiny_mesh_instance.rho_u)))
        on_disk = json.loads((tmp_path / "r_report.json").read_text())
        assert on_disk["m"] == report["m"]

    def test_objective_column_matches_state_file(self, tmp_path, tiny_mesh_instance):
        cfg = SolverConfig(iterations=12, log_stride=4)
        run(cfg, tiny_mesh_instance, str(tmp_path / "r"))
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        last_obj = float(lines[-1].split(",")[1])
        state = fem2d.read_state(tmp_path / "r_state.txt")
        assert last_obj == pytest.approx(state.objective(), abs=1e-12)

    def test_deterministic_reruns_byte_identical(self, tmp_path, small_mesh_instance):
        cfg1 = SolverConfig(iterations=30, log_stride=3, deterministic=True)
        cfg2 = SolverConfig(iterations=30, log_stride=3, deterministic=True)
        run(cfg1, small_mesh_instance, str(tmp_path / "a"))
        run(cfg2, small_mesh_instance, str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_scheme_refused_before_any_file(self, tmp_path, tiny_mesh_instance):
        with pytest.raises(InvalidInstance, match="unknown scheme 'bogus'"):
            run(SolverConfig(scheme="bogus"), tiny_mesh_instance, str(tmp_path / "s"))
        assert not list(tmp_path.iterdir())


class TestMain:
    def test_mesh_run_exit_zero(self, tmp_path, capsys):
        rc = cli.main([
            "--mesh", "2x2", "--iters", "5", "--stride", "5",
            "--out", str(tmp_path / "m"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["m"] == 4

    def test_instance_file_run(self, tmp_path, instance_file, capsys):
        rc = cli.main([
            "--instance", str(instance_file), "--iters", "4", "--stride", "2",
            "--out", str(tmp_path / "i"),
        ])
        assert rc == 0

    def test_auto_parameters(self, tmp_path, capsys):
        rc = cli.main([
            "--mesh", "2x2", "--iters", "5", "--stride", "5",
            "--tau", "auto", "--sigma0", "auto",
            "--out", str(tmp_path / "a"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tau"] != 0.5

    def test_eta_override_reaches_solver(self, tmp_path, instance_file, monkeypatch):
        seen = []
        solve = saddle.run_solver

        def capture(instance, *args):
            seen.append(instance)
            return solve(instance, *args)

        monkeypatch.setattr(saddle, "run_solver", capture)
        rc = cli.main([
            "--instance", str(instance_file), "--eta", "2.5", "--iters", "3", "--stride", "3",
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 0
        assert [inst.eta for inst in seen] == [2.5]

    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    def test_auto_sigma_for_fixed_tau(self, tmp_path, capsys, monkeypatch, scheme):
        seen = []
        solve = saddle.run_solver

        def capture(instance, config, sink, constants):
            seen.append(constants)
            return solve(instance, config, sink, constants)

        monkeypatch.setattr(saddle, "run_solver", capture)
        saved = tmp_path / "inst.fmo"
        rc = cli.main([
            "--mesh", "4x2", "--scheme", scheme, "--tau", "0.3", "--sigma0", "auto",
            "--iters", "4", "--stride", "2", "--save-instance", str(saved),
            "--out", str(tmp_path / "s"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        const = diagnostics.compute_constants(fem2d.read_instance(saved), 0.3)
        sigma = 1.0 if scheme == "weighted" else const.L_combined
        assert report["tau"] == 0.3
        assert report["sigma0"] == pytest.approx(sigma / np.sqrt(2.0 * const.D), rel=1e-12)
        assert [c.tau for c in seen] == [0.3]

    @pytest.mark.parametrize("source,params,threshold,code", [
        ("2x2", ["--tau", "auto"], 11, 0),
        ("2x2", ["--tau", "auto"], 12, 0),
        ("2x2", ["--mode", "penalty", "--nu", "1"], 11, 2),
        ("rank-deficient", ["--tau", "auto"], 7, 2),
        ("rank-deficient", ["--tau", "auto"], 8, 3),
        ("rank-deficient", ["--tau", "0.3"], 7, 2),
    ], ids=["11-0", "12-0", "penalty-11-2", "rank-deficient-7-2", "rank-deficient-8-3",
            "rank-deficient-fixed-tau-7-2"])
    def test_dense_threshold_gates_auto_parameters(
        self, tmp_path, capsys, source, params, threshold, code
    ):
        # a 2x2 mesh has N = 12 and a full-rank B: auto tau takes the banded
        # bound data at any threshold, while penalty mode needs a dense A(E)
        # per step.  The rank-deficient instance (N = 8, one column no element
        # touches) needs the dense B^T B spectrum, at an auto or a fixed tau;
        # within the gate it gets that far and then fails on its singular
        # stiffness.
        if source == "rank-deficient":
            rng = np.random.default_rng(7)
            cols = np.array([np.sort(rng.choice(7, size=5, replace=False)) for _ in range(4)])
            inst = ProblemInstance(cols, rng.normal(0, 1, (4, 2, 3, 5)),
                                   rng.normal(0, 1, (1, 8)), 0.4, 2.5, 0.1, 4.0, 6.0)
            fem2d.write_instance(inst, tmp_path / "rd.fmo")
            source_args = ["--instance", str(tmp_path / "rd.fmo")]
        else:
            source_args = ["--mesh", source]
        rc = cli.main([
            *source_args, "--iters", "2", *params,
            "--dense-threshold", str(threshold), "--out", str(tmp_path / "t"),
        ])
        assert rc == code
        if code == 2:
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "input" and "--dense-threshold" in err["error"]
            assert not (tmp_path / "t.csv").exists()  # refused before any output
        elif code == 3:
            assert "stiffness singular" in json.loads(capsys.readouterr().err)["error"]
        else:
            assert json.loads(capsys.readouterr().out)["N"] == 12

    def test_penalty_mode_without_nu_refused(self, tmp_path, capsys):
        # nu = 0 zeroes the penalty correction: the run would repeat plain
        # mode's iterates at a dense factorization per step
        rc = cli.main([
            "--mesh", "4x2", "--mode", "penalty", "--iters", "10", "--stride", "5",
            "--out", str(tmp_path / "t"),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "--nu" in err["error"]
        assert not list(tmp_path.iterdir())  # refused before any output

    def test_auto_parameters_above_dense_threshold(self, tmp_path, capsys):
        # N = 4032 over the default threshold 4000: the bound data, the rows,
        # the final violation and the certificate are all banded, so every
        # column and field is filled
        rc = cli.main([
            "--mesh", "63x31", "--iters", "2", "--tau", "auto", "--sigma0", "auto",
            "--out", str(tmp_path / "a"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 4032
        assert_every_cell_and_field_filled(report, tmp_path / "a.csv")
        rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(float(row.split(",")[3]) > 0 for row in rows)

    def test_dense_threshold_does_not_change_a_plain_run(self, tmp_path, capsys):
        # the threshold gates only dense work, which a full-rank plain run
        # has none of: N = 4032 runs the same path on either side of it
        out = str(tmp_path / "s")
        runs = []
        for threshold in (model.DENSE_THRESHOLD, 5000):
            rc = cli.main([
                "--mesh", "63x31", "--iters", "3", "--deterministic",
                "--dense-threshold", str(threshold), "--out", out,
            ])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            del report["cpu"]
            runs.append((report, (tmp_path / "s.csv").read_bytes()))
        assert runs[0][0]["N"] == 4032
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("params", [
        ["--tau", "auto", "--sigma0", "auto"],
        ["--tau", "0.3"],
    ])
    def test_bound_data_computed_once(self, tmp_path, capsys, monkeypatch, params):
        calls = {"smallest_nonzero_singular_sq": 0, "power_iteration_norm": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(diagnostics, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(diagnostics, name, counted)
        rc = cli.main([
            "--mesh", "4x2", "--iters", "20", "--stride", "10", *params,
            "--out", str(tmp_path / "c"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"] is not None
        assert calls == {"smallest_nonzero_singular_sq": 1, "power_iteration_norm": 0}

    def test_band_layout_built_once_per_run(self, tmp_path, capsys, monkeypatch):
        # the cli-logged size: 32x16, L = 3, bound data, logged rows, the final
        # violation and the certificate all solve on the one layout; without
        # --gamma the default-gamma probe builds it, and the run's instance is
        # a variant of the probe that keeps it and the shared operator
        built = {"band_layout": [], "find_shared_operator": []}
        for module, name in ((penalty, "band_layout"), (model, "find_shared_operator")):
            def counted(arg, _name=name, _fn=getattr(module, name)):
                built[_name].append(arg.N if _name == "band_layout" else arg.shape[-1])
                return _fn(arg)

            monkeypatch.setattr(module, name, counted)
        mesh = [
            "--mesh", "32x16", "--load", "right_edge:0,-1", "--load", "top_right:0.5,-1",
            "--load", "bottom_right:-0.5,-1",
        ]
        saved = str(tmp_path / "i.fmo")
        sources = {
            "gamma": [*mesh, "--gamma", "400", "--save-instance", saved],
            "probe": mesh,
            "instance": ["--instance", saved, "--eta", "2.5"],
        }
        for label, source in sources.items():
            for calls in built.values():
                calls.clear()
            rc = cli.main([
                *source, "--scheme", "weighted", "--iters", "30", "--tau", "auto",
                "--sigma0", "auto", "--autotune-window", "10", "--stride", "10",
                "--out", str(tmp_path / "c"),
            ])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            assert report["N"] == 1088 and report["certificate"] is not None
            rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
            assert len(rows) == 3 and all(row.split(",")[5] != "nan" for row in rows)
            assert built == {"band_layout": [1088], "find_shared_operator": [512]}, label

    def test_compliances_solved_once_per_row(self, tmp_path, capsys, monkeypatch):
        # the final step is a logged row at E_last, so the report's final
        # violation is that row's and costs no solve of its own; --gamma
        # keeps the default-gamma probe from solving
        solve = fem2d.reference_compliance
        calls = []

        def counted(instance, E):
            calls.append(E)
            return solve(instance, E)

        monkeypatch.setattr(fem2d, "reference_compliance", counted)
        rc = cli.main(["--mesh", "4x2", "--gamma", "5", "--iters", "25", "--stride", "10",
                       "--save-instance", str(tmp_path / "i.fmo"), "--out", str(tmp_path / "c")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["10", "20", "25"]
        assert len(calls) == len(rows)
        last = rows[-1].split(",")
        final = (report["violation_literal"], report["violation_positive"])
        assert final == (float(last[4]), float(last[5]))
        inst = fem2d.read_instance(tmp_path / "i.fmo")
        E_last = fem2d.read_state(tmp_path / "c_state.txt")
        assert final == penalty.violation_sums(inst, solve(inst, E_last))

    def test_bad_input_exit_two(self, tmp_path, capsys):
        for source in (tmp_path / "missing.fmo", tmp_path):  # a missing file, a directory
            rc = cli.main(["--instance", str(source), "--out", str(tmp_path / "b")])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "input"
            assert not (tmp_path / "b.csv").exists()

    def test_zero_load_with_default_gamma_exit_two(self, tmp_path, capsys):
        # the default gamma is twice the start compliance, which a zero load makes 0
        argv = ["--mesh", "4x2", "--load", "right_edge:0,0", "--iters", "2",
                "--out", str(tmp_path / "z")]
        rc = cli.main(argv)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input"
        assert "zero load" in err["error"] and "--gamma" in err["error"]
        assert list(tmp_path.iterdir()) == []
        assert cli.main(argv + ["--gamma", "1"]) == 0  # an explicit gamma is valid

    def test_nu_does_not_change_a_plain_run(self, tmp_path, capsys):
        # nu enters only the penalized problem: a plain run's bound column and
        # certificate are those of nu = 0
        runs = []
        for nu in ("0", "3"):
            rc = cli.main([
                "--mesh", "4x2", "--gamma", "0.4", "--nu", nu, "--iters", "20",
                "--stride", "10", "--deterministic", "--out", str(tmp_path / "n"),
            ])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            del report["cpu"]
            runs.append((report, (tmp_path / "n.csv").read_bytes()))
        assert runs[0] == runs[1]
        cert = runs[0][0]["certificate"]
        assert cert["violated_loads"] and cert["rhs_penalized"] is None

    def test_no_source_exit_two(self, capsys):
        rc = cli.main(["--iters", "3"])
        assert rc == 2

    def test_numerical_failure_exit_three(self, tmp_path, capsys, tiny_mesh_instance):
        import numpy as np

        from fmopt.model import ProblemInstance

        inst = ProblemInstance(np.arange(2)[None], np.zeros((1, 4, 3, 2)), np.ones((1, 4)),
                               0.3, 3.0, 0.05, 1.0, 1.0, 1.0)
        path = tmp_path / "singular.fmo"
        fem2d.write_instance(inst, path)
        rc = cli.main([
            "--instance", str(path), "--mode", "penalty", "--nu", "1.0",
            "--iters", "2", "--out", str(tmp_path / "s"),
        ])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        # a free DOF no element touches: the bound data pass (rank-deficient B),
        # and the first penalty step's dense factorization fails in place
        base = tiny_mesh_instance
        loads = np.hstack([base.loads, np.zeros((base.L, 1))])
        untouched = ProblemInstance(base.cols_packed, base.B_packed, loads,
                                    0.3, 3.0, 0.05, 5.0, 8.0, 1.0)
        fem2d.write_instance(untouched, path)
        rc = cli.main([
            "--instance", str(path), "--mode", "penalty",
            "--iters", "2", "--out", str(tmp_path / "s"),
        ])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert "stiffness singular" in err["error"]
        assert_reports_lambda_min(err["error"], untouched)

    def test_untouched_dof_singular_exit_three(self, tmp_path, capsys, tiny_mesh_instance):
        # a free DOF that no element touches makes A(E) singular; the banded
        # solve must say so, and a plain CLI run must exit 3 at its first row
        base = tiny_mesh_instance
        loads = np.hstack([base.loads, np.zeros((base.L, 1))])
        inst = ProblemInstance(base.cols_packed, base.B_packed, loads, 0.3, 3.0, 0.05, 5.0, 8.0)
        zero_B = ProblemInstance(
            np.arange(2)[None], np.zeros((1, 4, 3, 2)), np.ones((1, 4)), 0.3, 3.0, 0.05, 1.0, 1.0,
        )
        for singular in (inst, zero_B):
            E = singular.start_material().dense()
            for solve in (penalty.compliances, penalty.compliance_solves):  # banded, dense
                with pytest.raises(NumericalFailure, match="stiffness singular") as failure:
                    solve(singular, E)
                assert_reports_lambda_min(str(failure.value), singular)
        path = tmp_path / "untouched.fmo"
        fem2d.write_instance(inst, path)
        rc = cli.main([
            "--instance", str(path), "--iters", "2", "--stride", "1",
            "--out", str(tmp_path / "u"),
        ])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert "stiffness singular" in err["error"]
        assert_reports_lambda_min(err["error"], inst)
        assert len((tmp_path / "u.csv").read_text().splitlines()) == 1  # header only

    def test_default_gamma_probe_above_dense_gate(self, tmp_path, capsys):
        # N = 4032: the default gamma comes from a compliance probe over the
        # dense threshold, which the banded solve handles
        rc = cli.main(["--mesh", "63x31", "--iters", "2", "--out", str(tmp_path / "d")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 4032
        assert_every_cell_and_field_filled(report, tmp_path / "d.csv")

    def test_certificate_at_zero_gap(self, tmp_path, capsys):
        # rho_l = rho_u: every objective is sum(rho_l), so f_star_upper
        # equals it and the certificate takes its gap0 = 0 limit
        rc = cli.main([
            "--mesh", "2x1", "--rho-l", "3", "--rho-u", "3", "--r", "1e-3", "--gamma", "1",
            "--eta", "1", "--mode", "penalty", "--nu", "1", "--iters", "200", "--stride", "10",
            "--out", str(tmp_path / "z"),
        ])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["f_star_upper_estimate"] == 6.0 and cert["violated_loads"]
        assert cert["rhs_plain"] == 0.0 and cert["rhs_penalized"] == 0.0

    def test_save_instance_roundtrip(self, tmp_path):
        saved = tmp_path / "gen.fmo"
        rc = cli.main([
            "--mesh", "3x2", "--iters", "2", "--stride", "2",
            "--save-instance", str(saved), "--out", str(tmp_path / "g"),
        ])
        assert rc == 0
        inst = fem2d.read_instance(saved)
        assert inst.m == 6

    def test_penalty_mode_runs(self, tmp_path, capsys):
        rc = cli.main([
            "--mesh", "2x2", "--mode", "penalty", "--nu", "2.0",
            "--iters", "5", "--stride", "5", "--out", str(tmp_path / "p"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "penalty"

    def test_multi_load_flag(self, tmp_path, capsys):
        rc = cli.main([
            "--mesh", "2x2", "--load", "right_edge:0,-1", "--load", "bottom_right:1,0",
            "--iters", "3", "--stride", "3", "--out", str(tmp_path / "l"),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["L"] == 2

    @pytest.mark.parametrize("flag,value,field", [
        ("--rho-l", "nan", "rho_l"),
        ("--eta", "inf", "eta"),
        ("--lx", "nan", "lx"),
        ("--ly", "inf", "ly"),
        ("--dense-threshold", "-5", "dense_threshold"),
        ("--sigma0", "inf", "sigma0"),
    ])
    def test_nonfinite_input_exit_two(self, tmp_path, capsys, flag, value, field):
        rc = cli.main([
            "--mesh", "4x2", "--iters", "20", "--stride", "10", flag, value,
            "--out", str(tmp_path / "n"),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input"
        assert field in err["error"]

    @pytest.mark.parametrize("flag,value,field", [("--eta", "inf", "eta"), ("--nu", "-1", "nu")])
    def test_instance_override_exit_two(self, tmp_path, capsys, instance_file, flag, value, field):
        rc = cli.main([
            "--instance", str(instance_file), "--iters", "3", flag, value,
            "--out", str(tmp_path / "n"),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input"
        assert field in err["error"]
        assert not (tmp_path / "n.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--tau", "1.5"),
        ("--sigma0", "-1"),
        ("--sigma0", "nan"),
        ("--autotune-window", "5"),
    ])
    def test_refused_run_leaves_no_file(self, tmp_path, capsys, flag, value):
        rc = cli.main(["--mesh", "4x2", "--iters", "3", flag, value, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "input"
        assert not (tmp_path / "x.csv").exists()
        assert not list(tmp_path.iterdir())

    def test_overflowing_bound_constant_exit_three(self, tmp_path, capsys):
        rc = cli.main(["--mesh", "4x2", "--iters", "5", "--eta", "1e200",
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert "bound constant L_E2" in err["error"]

    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    def test_overflowing_load_exit_three(self, tmp_path, scheme):
        rc, err = run_fmopt(tmp_path, "--mesh", "4x2", "--gamma", "5",
                            "--load", "bottom_right:0,1e154", "--iters", "20", "--stride", "10",
                            "--scheme", scheme)
        assert rc == 3 and err["kind"] == "numerical"
        if scheme == "weighted":  # the step whose weight 1 / inf would be 0
            assert err["error"] == "step 1: subgradient norm is not finite (inf)"
        # numpy's overflow warnings are folded into the one JSON line
        assert err["warnings"] and all(
            w.startswith("RuntimeWarning: overflow encountered") for w in err["warnings"]
        )
        assert len(set(err["warnings"])) == len(err["warnings"])

    @pytest.mark.parametrize("load,extra,message", [
        # the pairing sums overflow at step 1, before eigh meets the blocks
        ("0,1e154", ["--mode", "penalty", "--nu", "1"], "step 1: subgradient pairing is not finite"),
        # the load norm overflows before any bound constant is formed from it
        ("0,2e154", [], "load norm ||f|| = inf is not finite"),
    ], ids=["penalty-pairing", "load-norm"])
    def test_overflow_named_where_it_starts(self, tmp_path, load, extra, message):
        rc, err = run_fmopt(tmp_path, "--mesh", "4x2", "--gamma", "5",
                            "--load", f"bottom_right:{load}", "--iters", "20", "--stride", "10",
                            *extra)
        assert rc == 3
        assert all(w.startswith("RuntimeWarning: overflow") for w in err.pop("warnings", []))
        assert err == {"error": message, "kind": "numerical"}

    def test_overflowing_gram_matrix_exit_three(self, tmp_path):
        # B scaled by 1e160: the entries of B^T B overflow, and inf times the
        # zero entries of E = I puts NaN in the band of A(I)
        spec = fem2d.MeshSpec(nx=6, ny=3, lx=6.0, ly=3.0)
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 10.0)
        big = ProblemInstance(inst.cols_packed, inst.B_packed * 1e160, inst.loads, inst.rho_l,
                              inst.rho_u, inst.r, inst.gamma, inst.eta)
        fem2d.write_instance(big, tmp_path / "big.fmo")
        # one JSON line on stderr (run_fmopt checks it): no traceback
        rc, err = run_fmopt(tmp_path, "--instance", str(tmp_path / "big.fmo"), "--iters", "2")
        assert rc == 3
        assert all(w.startswith("RuntimeWarning:") for w in err.pop("warnings", []))
        assert err == {
            "error": "B^T B is not finite: the strain operator overflows its Gram matrix",
            "kind": "numerical",
        }

    @pytest.mark.parametrize("code", [0, 2, 3, None])
    def test_warnings_shown_or_folded_by_exit_code(self, tmp_path, capsys, monkeypatch, code):
        # in-process, so pytest's filterwarnings = error applies: the test
        # records what main would show, under an "always" filter of its own.
        # code None is a fault outside the exit codes: it propagates once,
        # and the warnings are shown after main stops recording them (shown
        # while it records, each would be recorded again, without end)
        def warning_run(config, instance, out_prefix):
            for _ in range(2):
                warnings.warn("probe overflow", RuntimeWarning)
            if code is None:
                raise RuntimeError("fault in run")
            if code == 2:
                raise InvalidInstance("bad input")
            if code == 3:
                raise NumericalFailure("step 1: gap is not finite (inf)")
            return {"ok": True}

        monkeypatch.setattr(cli, "run", warning_run)
        argv = ["--mesh", "2x2", "--iters", "2", "--out", str(tmp_path / "w")]
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            if code is None:
                with pytest.raises(RuntimeError, match="fault in run"):
                    cli.main(argv)
                rc = None
            else:
                rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == code
        if code in (0, None):
            # shown as the warnings module shows them, once per warning raised
            assert [(str(w.message), w.category, w.filename) for w in shown] == [
                ("probe overflow", RuntimeWarning, __file__)
            ] * 2
            assert err == ""
            assert (json.loads(out) == {"ok": True}) if code == 0 else out == ""
        else:
            assert shown == [] and out == ""
            assert json.loads(err)["warnings"] == ["RuntimeWarning: probe overflow"]
            assert err.count("\n") == 1

    def test_linalg_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def broken_run(config, instance, out_prefix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "run", broken_run)
        rc = cli.main(["--mesh", "2x2", "--iters", "2", "--out", str(tmp_path / "e")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"

    def test_nonfinite_report_exit_three(self, tmp_path, capsys, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(cli.penalty, "violation_sums", lambda inst, comp: (nan, nan))
        rc = cli.main(["--mesh", "2x2", "--iters", "2", "--out", str(tmp_path / "v")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"
        assert not (tmp_path / "v_report.json").exists()

    def test_nonfinite_gap_exit_three(self, tmp_path, capsys, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(diagnostics, "gap_estimate", lambda acc, inst: (nan, nan, nan))
        rc = cli.main(["--mesh", "2x2", "--iters", "4", "--stride", "2",
                       "--out", str(tmp_path / "g")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert "step 2: gap is not finite" in err["error"]


def _load_script(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    def test_traced_calls_resolve(self):
        # the benchmark's span tracer patches each of these attributes by name
        spans = _load_script("spans", SCRIPTS.parent / "perfbench")
        assert len(spans.TRACED_CALLS) == 23
        for module, attr, _ in spans.TRACED_CALLS:
            assert callable(getattr(importlib.import_module(f"fmopt.{module}"), attr, None)), (
                f"fmopt.{module}.{attr}"
            )

    def test_penalty_comparison(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["penalty_comparison.py", "20", str(tmp_path)])
        assert _load_script("penalty_comparison").main() == 0
        for mode in ("penalty", "plain"):
            report = json.loads((tmp_path / f"tight_{mode}_report.json").read_text())
            assert report["mode"] == mode and report["iterations"] == 20

    def test_cantilever_convergence(self, tmp_path, monkeypatch, capsys):
        solve = cli.run

        def capped(config, instance, out_prefix):
            config = dataclasses.replace(config, iterations=min(config.iterations, 20))
            return solve(config, instance, out_prefix)

        monkeypatch.setattr(cli, "run", capped)
        monkeypatch.setattr(sys, "argv", ["cantilever_convergence.py", str(tmp_path)])
        assert _load_script("cantilever_convergence").main() == 0
        for scheme in ("simple", "weighted"):
            report = json.loads((tmp_path / f"cantilever_{scheme}_report.json").read_text())
            assert report["scheme"] == scheme and report["iterations"] == 20
