import importlib.util
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from biharmlab import build_radial_grid, cli, norms, report, spectral
from biharmlab.cli import ConfigError, build_parser, read_config


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def run_cli(*args, cwd=None, env=None):
    """Run the CLI in a child process; `env` entries override the
    inherited environment."""
    return subprocess.run([sys.executable, "-m", "biharmlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=None if env is None else {**os.environ, **env})


class TestConfigParsing:
    def test_sections_and_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed=3\nc=0.5\n[grid]\nn=300\nmode=log\n")
        assert read_config(str(cfg)) == {"seed": 3, "c": 0.5, "n": 300,
                                         "mode": "log"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nbogus=1\n")
        with pytest.raises(ConfigError):
            read_config(str(cfg))

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[nosuch]\nn=4\n")
        with pytest.raises(ConfigError):
            read_config(str(cfg))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\n[run]\nseed=1\n")
        assert read_config(str(cfg)) == {"seed": 1}

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nell_max = 2\n")
        res = run_cli("rellich", "--config", str(cfg), "--ell-max", "8",
                      "--n", "200", "--out", str(tmp_path))
        assert res.returncode in (0, 1), res.stderr
        _, rows = report.read_csv(str(tmp_path / "rellich" / "rellich.csv"))
        assert [int(r[0]) for r in rows] == list(range(9))

    def test_config_value_replaces_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed = 3\nallow_supercritical = true\n"
                       "[grid]\nmode = log\n")
        args = build_parser(read_config(str(cfg))).parse_args(
            ["solve", "--seed", "5"])
        assert (args.seed, args.allow_supercritical, args.mode) == (5, True, "log")

    @pytest.mark.parametrize("text, lineno, message", [
        ("[run]\nseed = 1\nN = five\n", 3, "bad value 'five' for run.N: "),
        ("# N\n[grid]\nmode = cubic\n", 3, "bad value 'cubic' for grid.mode: "),
        ("[run]\nallow_supercritical = yes\n", 2,
         "bad value 'yes' for run.allow_supercritical: expected true or false"),
    ], ids=["int", "mode", "bool"])
    def test_badly_typed_value_names_its_line(self, tmp_path, text, lineno,
                                              message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError) as exc:
            read_config(str(cfg))
        assert str(exc.value).startswith(f"{cfg}:{lineno}: {message}")


class TestExitCodes:
    def test_low_dimension_is_config_error(self, tmp_path):
        res = run_cli("solve", "--N", "4", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nbogus=1\n")
        res = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path))
        assert res.returncode == 2

    @pytest.mark.parametrize("text", ["[tolerances]\nslope_tol = 0.1\n",
                                      "[grid]\nm = 8\n",
                                      "[grid]\nmode = cubic\n",
                                      "[run]\nN = five\n",
                                      "[sweep]\nt = ,\n",
                                      "[sweep]\nlam = 0.5,nan\n"])
    def test_unused_or_malformed_config_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        res = run_cli("solve", "--config", str(cfg), "--n", "64",
                      "--out", str(tmp_path))
        assert res.returncode == 2
        assert not (tmp_path / "solve").exists()

    def test_supercritical_requires_flag(self, tmp_path):
        res = run_cli("solve", "--c", "2.0", "--out", str(tmp_path))
        assert res.returncode == 2
        res = run_cli("solve", "--c", "2.0", "--allow-supercritical",
                      "--n", "64", "--out", str(tmp_path))
        assert res.returncode in (0, 1)

    def test_solve_passes(self, tmp_path):
        res = run_cli("solve", "--n", "64", "--out", str(tmp_path))
        assert res.returncode == 0
        assert "[PASS]" in res.stdout
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["all_pass"]
        assert os.path.exists(tmp_path / "solve" / "solve.csv")

    def test_solve_takes_one_p(self, tmp_path, capsys):
        code = cli.main(["solve", "--p", "1.5,3", "--n", "64",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        message = "ConfigError: solve takes one --p value (got 1.5, 3.0)"
        assert f"error in solve: {message}" in capsys.readouterr().err
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["error"] == message
        assert man["hashes"] == {}          # stopped before the grid
        assert not (tmp_path / "solve" / "solve.csv").exists()

    def test_solve_runs_at_the_given_p(self, tmp_path, capsys):
        code = cli.main(["solve", "--p", "3", "--n", "64",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] solve:solution_seminorm_finite p = 3.0" in out
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["checks"][0]["detail"] == "p = 3.0"

    def test_supercritical_run_is_report_only(self, tmp_path):
        with pytest.warns(UserWarning, match="may be indefinite"):
            code = cli.main(["solve", "--c", "2", "--allow-supercritical",
                             "--n", "64", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["checks"] == []
        assert man["config"]["report_only"] is True
        assert man["files"] == [str(tmp_path / "solve" / "solve.csv")]

    def test_supercritical_twisted_names_c_star(self, tmp_path):
        # the form inequality has no constant at c >= C*: an operator
        # error that names both, not a math domain error
        with pytest.warns(UserWarning, match="may be indefinite"):
            code = cli.main(["twisted", "--c", "2", "--allow-supercritical",
                             "--n", "64", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        man = json.load(open(tmp_path / "twisted" / "manifest.json"))
        assert man["error"] == ("OperatorError: the form inequality needs "
                                "c < C* (c = 2.0, C* = 1.5625)")

    def test_box_over_budget_exits_two_before_allocating(self, tmp_path):
        # the m = 16 box at N = 7 would need about 9.7 GB
        tracemalloc.start()
        try:
            code = cli.main(["twisted", "--N", "7", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        assert peak < 1 << 20
        man = json.load(open(tmp_path / "twisted" / "manifest.json"))
        assert man["error"] == (
            f"GridError: the m = 16 box at N = 7 needs about "
            f"{cli.box_study_bytes(7, 16) >> 20} MiB, over the box budget "
            f"of {cli.BOX_BUDGET_BYTES >> 20} MiB")

    @pytest.mark.parametrize("name, grid", [
        ("coercivity", ["--n", "128"]), ("rellich", ["--n", "400"]),
        ("decay", ["--n", "128", "--R", "10"]), ("offdiag", ["--n", "256"]),
        ("riesz", ["--n", "128"]), ("distance", []),
        ("solve", ["--n", "64"])])
    def test_runs_to_an_outcome_in_six_dimensions(self, tmp_path, name, grid):
        # twisted is left out: its m = 16 box alone takes about 10 s at N = 6
        code = cli.main([name, "--N", "6", *grid, "--seed", "7",
                         "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_ASSERT)
        man = json.load(open(tmp_path / name / "manifest.json"))
        assert man["config"]["N"] == 6
        assert man["error"] is None

    def test_box_budget_admits_five_and_six_dimensions(self):
        assert cli.box_study_bytes(5, 16) < cli.box_study_bytes(6, 16)
        assert cli.box_study_bytes(6, 16) <= cli.BOX_BUDGET_BYTES

    def test_coercivity_subcommand_writes_its_table(self, tmp_path):
        code = cli.main(["coercivity", "--n", "64", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "coercivity" / "contraction.csv").exists()
        man = json.load(open(tmp_path / "coercivity" / "manifest.json"))
        assert man["config"]["report_only"] is False

    def test_coercivity_records_its_grid_hash(self, tmp_path):
        args = build_parser().parse_args(["suite", "--n", "64"])
        man = report.RunManifest({}, str(tmp_path), False)
        cli.run_coercivity(args, man)
        grid = build_radial_grid(5, 30.0, 64, "uniform")
        assert man.hashes == {"grid": grid.content_hash()}
        assert man.all_pass

    def test_riesz_records_both_grid_hashes(self, tmp_path):
        args = build_parser().parse_args(["riesz", "--n", "64"])
        man = report.RunManifest({}, str(tmp_path), False)
        cli.run_riesz(args, man)
        assert man.hashes == {
            "grid": build_radial_grid(5, 30.0, 64, "uniform").content_hash(),
            "grid_refined":
                build_radial_grid(5, 30.0, 128, "uniform").content_hash()}

    def test_repeated_list_value_runs_once(self, tmp_path):
        code = cli.main(["riesz", "--p", "1.5,1.5", "--n", "64",
                         "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_ASSERT)
        man = json.load(open(tmp_path / "riesz" / "manifest.json"))
        names = [chk["name"] for chk in man["checks"]]
        assert names.count("riesz_stability_p1.5") == 1
        assert build_parser().parse_args(
            ["decay", "--t", "0.1,0.2,0.1,0.3"]).t == [0.1, 0.2, 0.3]

    def test_riesz_decomposes_each_grid_once(self, tmp_path, monkeypatch):
        sizes = []
        solve = spectral.eigendecompose

        def counted(op):
            sizes.append(op.n)
            return solve(op)

        monkeypatch.setattr(spectral, "eigendecompose", counted)
        # counted also where a module binds the name by import
        monkeypatch.setattr(cli, "eigendecompose", counted, raising=False)
        code = cli.main(["riesz", "--n", "64", "--out", str(tmp_path)])
        assert code in (0, 1)
        # the refined operator first: nothing of the base grid's spectrum
        # is held during the larger eigensolve
        assert sizes == [128, 64]

    def test_spectral_error_exits_two_and_is_recorded(self, tmp_path,
                                                      monkeypatch, capsys):
        def indefinite(args, man):
            raise spectral.SpectralError("indefinite operator")

        monkeypatch.setitem(cli.EXPERIMENTS, "solve", indefinite)
        code = cli.main(["solve", "--n", "64", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err.count("error in solve: SpectralError: indefinite "
                         "operator") == 1
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["error"] == "SpectralError: indefinite operator"
        assert man["all_pass"] is False

    @pytest.mark.parametrize("p", ["0", "0.5"])
    def test_solve_rejects_p_below_one(self, tmp_path, capsys, p):
        code = cli.main(["solve", "--n", "64", "--p", p,
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error in solve: GridError: p >= 1 required" in err
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["error"].startswith("GridError: p >= 1 required")
        assert not (tmp_path / "solve" / "solve.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--p", ","], ["offdiag", "--d", ","], ["solve", "--t", ","],
        ["twisted", "--lam", ","], ["riesz", "--p", ","],
        ["solve", "--p", "nan"], ["decay", "--t", "0.01,inf"],
        ["riesz", "--p", "1.5,two"],
    ], ids=["solve-p-empty", "offdiag-d-empty", "solve-t-empty",
            "twisted-lam-empty", "riesz-p-empty", "solve-p-nan",
            "decay-t-inf", "riesz-p-word"])
    def test_malformed_list_is_config_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"error: argument {argv[1]}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_riesz_sweep_through_p_2_writes_its_manifest(self, tmp_path):
        code = cli.main(["riesz", "--p", "1.5,2", "--n", "64",
                         "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_ASSERT)
        man = json.load(open(tmp_path / "riesz" / "manifest.json"))
        assert man["error"] is None
        names = [chk["name"] for chk in man["checks"]]
        assert {"riesz_l2_bound", "riesz_stability_p1.5",
                "riesz_stability_p2.0"} <= set(names)
        _, rows = report.read_csv(str(tmp_path / "riesz" / "riesz.csv"))
        p2 = [row for row in rows if row[0] == "p=2.0"]
        assert len(p2) == 1 and p2[0][1] == p2[0][2]    # exact: lower = upper

    def test_riesz_at_c_zero_on_a_log_grid_is_an_isometry(self, tmp_path):
        # R = -Q Q^T from the tridiagonal factor; applying the banded L to
        # the low modes read ||R||_2 = 1 + 6.2e-6 on this grid
        cli.main(["riesz", "--c", "0", "--n", "256", "--mode", "log",
                  "--out", str(tmp_path)])
        man = json.load(open(tmp_path / "riesz" / "manifest.json"))
        l2 = {chk["name"]: chk for chk in man["checks"]}["riesz_l2_bound"]
        assert l2["pass"]
        assert abs(l2["value"] - 1.0) <= 1e-12

    def test_negative_time_exits_two_and_is_recorded(self, tmp_path, capsys):
        code = cli.main(["offdiag", "--n", "64", "--t=-0.002,0.001",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error in offdiag: SpectralError: Re t >= 0 required" in err
        man = json.load(open(tmp_path / "offdiag" / "manifest.json"))
        assert man["error"] == "SpectralError: Re t >= 0 required"

    def test_offdiag_region_overlapping_e_exits_two(self, tmp_path, capsys):
        code = cli.main(["offdiag", "--n", "64", "--d=-1,1,2,3",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr()
        assert "error in offdiag: EstimateError: " in err.err
        assert "F overlaps or touches E at --d -1, 1\n" in err.err
        assert "offdiag_distance_exponent" not in err.out
        man = json.load(open(tmp_path / "offdiag" / "manifest.json"))
        assert man["error"].startswith("EstimateError: ")
        assert not (tmp_path / "offdiag" / "offdiag.csv").exists()

    def test_negative_ell_max_is_config_error(self, tmp_path, capsys):
        code = cli.main(["rellich", "--ell-max", "-1", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: --ell-max >= 0 required (got -1)"]
        assert not (tmp_path / "rellich").exists()

    @pytest.mark.parametrize("flag", ["--R", "--n"])
    def test_zero_grid_value_reaches_the_grid(self, tmp_path, capsys, flag):
        code = cli.main(["solve", flag, "0", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        man = json.load(open(tmp_path / "solve" / "manifest.json"))
        assert man["error"].startswith("GridError: ")
        assert man["hashes"] == {}
        assert "error in solve: GridError: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--c", "nan"], "--c must be finite (got nan)"),
        (["--c", "inf", "--allow-supercritical"],
         "--c must be finite (got inf)"),
        (["--R", "nan"], "--R must be finite (got nan)"),
        (["--R", "inf"], "--R must be finite (got inf)"),
        (["--seed", "-1"], "--seed >= 0 required (got -1)"),
    ], ids=["c-nan", "c-inf", "R-nan", "R-inf", "seed-negative"])
    def test_nonfinite_or_negative_run_value_is_config_error(
            self, tmp_path, capsys, argv, message):
        code = cli.main(["suite", *argv, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_rellich_on_a_uniform_grid_exits_two_and_is_recorded(
            self, tmp_path, capsys):
        code = cli.main(["rellich", "--mode", "uniform", "--n", "64",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        man = json.load(open(tmp_path / "rellich" / "manifest.json"))
        assert man["error"].startswith("EstimateError: ")
        assert "--mode log" in man["error"]
        assert f"error in rellich: {man['error']}" in capsys.readouterr().err

    def test_suite_runs_every_experiment_past_errors(self, tmp_path,
                                                     monkeypatch, capsys):
        def broken(args, man):
            raise spectral.SpectralError("indefinite operator")

        def passing(args, man):
            man.add_check("ran", 0, "<=", 0)

        assert list(cli.EXPERIMENTS) == ["coercivity", "rellich", "decay",
                                         "riesz", "twisted", "solve",
                                         "offdiag", "distance"]
        for name in cli.EXPERIMENTS.keys() - {"coercivity"}:   # runs as is
            monkeypatch.setitem(cli.EXPERIMENTS, name,
                                broken if name in ("rellich", "riesz")
                                else passing)
        code = cli.main(["suite", "--n", "64", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error in {name}: SpectralError: indefinite operator"
            for name in ("rellich", "riesz")]
        assert "[PASS] solve:ran" in captured.out
        assert "[PASS] coercivity:semigroup_contractive gram_norm - 1 = " \
            in captured.out
        for name in cli.EXPERIMENTS:
            man = json.load(open(tmp_path / name / "manifest.json"))
            broke = name in ("rellich", "riesz")
            assert man["error"] == ("SpectralError: indefinite operator"
                                    if broke else None)
            assert man["all_pass"] is not broke

    def test_overflowing_bound_reads_inf(self, tmp_path, capsys):
        # 2 k_h (1 + lam^4) t is about 1,060 at lam = 2 and t = 4.8, past
        # what math.exp can represent: those bounds read inf, and the
        # experiment runs to an outcome
        code = cli.main(["twisted", "--n", "128", "--t", "0.3,0.6,1.2,2.4,4.8",
                         "--seed", "7", "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_ASSERT)
        man = json.load(open(tmp_path / "twisted" / "manifest.json"))
        assert man["error"] is None
        assert "error in" not in capsys.readouterr().err
        header, rows = report.read_csv(
            str(tmp_path / "twisted" / "twisted_semigroup.csv"))
        table = dict(zip(header, np.array(rows, dtype=float).T))
        assert np.all(np.isfinite(table["norm"]))
        assert np.all(np.isfinite(table["lap_norm"]))
        over = (table["lam"] == 2.0) & (table["t"] == 4.8)
        for col in ("bound", "lap_bound"):
            assert np.all(np.isinf(table[col][over]))
            assert np.all(np.isfinite(table[col][~over]))

    def test_suite_runs_past_an_arithmetic_error(self, tmp_path, monkeypatch,
                                                 capsys):
        def overflowing(args, man):
            raise OverflowError("math range error")

        def passing(args, man):
            man.add_check("ran", 0, "<=", 0)

        for name in cli.EXPERIMENTS:
            monkeypatch.setitem(cli.EXPERIMENTS, name,
                                overflowing if name == "twisted" else passing)
        code = cli.main(["suite", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error in twisted: OverflowError: math range error"]
        for name in ("distance", "solve"):
            assert f"[PASS] {name}:ran" in captured.out
            man = json.load(open(tmp_path / name / "manifest.json"))
            assert man["error"] is None

    def test_twisted_fits_the_laplacian_on_its_own_times(self, tmp_path,
                                                         monkeypatch):
        # this grid's reliable window starts at 0.244, above every time of
        # a fixed 0.01-0.1 list
        seen = []
        fit = cli.laplacian_decay_fit

        def recorded(op, ts):
            seen.append(list(ts))
            return fit(op, ts)

        monkeypatch.setattr(cli, "laplacian_decay_fit", recorded)
        code = cli.main(["twisted", "--n", "128", "--t",
                         "0.25,0.35,0.5,0.7,1.0", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert seen == [[0.25, 0.35, 0.5, 0.7, 1.0]]
        man = json.load(open(tmp_path / "twisted" / "manifest.json"))
        assert man["error"] is None
        assert "laplacian_decay_half" in [chk["name"] for chk in man["checks"]]

    def test_decay_on_a_log_grid_passes(self, tmp_path):
        code = cli.main(["decay", "--mode", "log", "--c", "0",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        _, rows = report.read_csv(str(tmp_path / "decay" / "decay.csv"))
        for row in rows:
            slope, target = float(row[3]), float(row[4])
            assert slope == pytest.approx(target, rel=1e-4)

    def test_decay_at_c_zero_runs_its_study_once(self, tmp_path):
        code = cli.main(["decay", "--c", "0", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        _, rows = report.read_csv(str(tmp_path / "decay" / "decay.csv"))
        assert [row[:3] for row in rows] == [["0.0", "2.0", "inf"],
                                             ["0.0", "2.0", "10.0"]]
        man = json.load(open(tmp_path / "decay" / "manifest.json"))
        names = [chk["name"] for chk in man["checks"]]
        assert names == ["decay_slope_c0.0_qinf", "decay_slope_c0.0_q10.0"]

    def test_rellich_failed_check_exits_one(self, tmp_path):
        res = run_cli("rellich", "--n", "400", "--out", str(tmp_path))
        assert res.returncode == 1
        assert "[FAIL]" in res.stdout


# the suite's checks in the order it records them
SUITE_CHECKS = (
    "positive_definite", "semigroup_contractive",
    "rellich_within_10pct", "rellich_min_at_ell0",
    "decay_slope_c0.0_qinf", "decay_slope_c0.0_q10.0",
    "decay_slope_c1.0_qinf", "decay_slope_c1.0_q10.0",
    "riesz_routes_agree", "riesz_l2_bound", "riesz_stability_p1.3",
    "riesz_stability_p1.5", "riesz_stability_p1.8",
    "twisted_expansion_order", "twisted_semigroup_bounds",
    "laplacian_decay_half", "solution_seminorm_finite",
    "offdiag_distance_exponent", "offdiag_time_exponent",
    "davies_distance_bracket", "lambda_optimizer")


# runs `suite --seed 7` into argv[2] with each experiment wrapped to
# record whether scipy's optimiser stack is loaded when it starts, and
# writes that, in run order, with the state at the end to argv[1]
OPTIMIZER_PROBE_RUN = """
import json, sys
import biharmlab.cli as cli
seen = {}


def probed(name, run):
    def wrapped(args, man):
        seen[name] = "scipy.optimize" in sys.modules
        return run(args, man)
    return wrapped


for name, run in list(cli.EXPERIMENTS.items()):
    cli.EXPERIMENTS[name] = probed(name, run)
rc = cli.main(["suite", "--seed", "7", "--out", sys.argv[2]])
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "at_start": list(seen.items()),
               "at_end": "scipy.optimize" in sys.modules}, fh)
"""


@pytest.fixture(scope="module")
def probed_suite(tmp_path_factory):
    """The default suite run once in a fresh interpreter: (the probe's
    record, the output directory)."""
    tmp = tmp_path_factory.mktemp("probed_suite")
    result = tmp / "probe.json"
    res = subprocess.run(
        [sys.executable, "-c", OPTIMIZER_PROBE_RUN, str(result),
         str(tmp / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(cli.__file__))})
    assert res.returncode == 0, res.stderr
    return json.loads(result.read_text()), tmp / "out"


class TestSuiteOrder:
    def test_optimizer_stack_loads_after_the_largest_arrays(self,
                                                            probed_suite):
        # scipy.optimize stays resident once imported, so it must not be
        # under the peaks of riesz's eigensolves and twisted's box grid
        probe, _ = probed_suite
        assert probe["rc"] == cli.EXIT_ASSERT      # the two known failures
        names = [name for name, _ in probe["at_start"]]
        assert names == list(cli.EXPERIMENTS)
        last = max(names.index("riesz"), names.index("twisted"))
        loaded = [name for name, seen in probe["at_start"] if seen]
        assert all(names.index(name) > last for name in loaded)
        assert probe["at_end"] is True         # the probe can see it

    def test_manifests_record_inherited_memory(self, probed_suite):
        _, out = probed_suite
        starts = {}
        for name in cli.EXPERIMENTS:
            man = json.loads((out / name / "manifest.json").read_text())
            assert 10.0 < man["rss_start_mb"] <= man["peak_rss_mb"]
            starts[name] = man["rss_start_mb"]
        # distance, which runs right after offdiag, inherits offdiag's
        # optimiser stack (about 16.5 MB)
        assert starts["distance"] - starts["offdiag"] > 10.0


class TestBenchmarkReference:
    def test_suite_csvs_match_the_reference(self, tmp_path):
        # the benchmark's own comparison, at its tolerance; reads only
        spec = importlib.util.spec_from_file_location(
            "perfbench_check", os.path.join(PERFBENCH, "check.py"))
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        args = build_parser().parse_args(["suite", "--seed", "7",
                                          "--out", str(tmp_path)])
        mans = {}
        restore, _ = norms.pin_blas_threads()
        try:
            for name, run in (("coercivity", cli.run_coercivity),
                              ("decay", cli.run_decay),
                              ("solve", cli.run_solve),
                              ("twisted", cli.run_twisted),
                              ("distance", cli.run_distance),
                              ("offdiag", cli.run_offdiag),
                              ("riesz", cli.run_riesz),
                              ("rellich", cli.run_rellich)):
                mans[name] = report.RunManifest({}, str(tmp_path / name),
                                                False)
                run(args, mans[name])
        finally:
            restore()
        checks = [chk for name in cli.EXPERIMENTS for chk in mans[name].checks]
        failing = {"rellich_within_10pct", "riesz_l2_bound"}
        assert [(chk["name"], chk["pass"]) for chk in checks] == [
            (name, name not in failing) for name in SUITE_CHECKS]
        ops = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}
        for chk in checks:
            assert chk["pass"] == ops[chk["op"]](chk["value"], chk["bound"])
        for rel in ("coercivity/contraction.csv", "decay/decay.csv",
                    "decay/decay_curve.csv", "solve/solve.csv",
                    "twisted/twisted_expansion.csv",
                    "twisted/twisted_semigroup.csv",
                    "distance/distance.csv", "offdiag/offdiag.csv",
                    "riesz/riesz.csv", "rellich/rellich.csv"):
            ref = os.path.join(PERFBENCH, "reference", "suite", rel)
            got = check.read_table(str(tmp_path / rel))
            rtol = check.RTOL_FILE.get(("suite", rel), check.RTOL)
            assert check.compare_table(got, check.read_table(ref), rtol) == []


# runs `cli.main(argv[2:])` under perfbench's tracer on two cores and
# writes the spans and the wall time of the call to argv[1]
TRACED_RUN = """
import json, os, sys, time
sys.path.insert(0, {perfbench!r})
os.sched_getaffinity = lambda pid: {{0, 1}}
import biharmlab.cli as cli
import tracer
tr = tracer.Tracer()
tracer.install_biharmlab(tr)
t0 = time.perf_counter()
rc = cli.main(sys.argv[2:])
wall_s = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    json.dump({{"rc": rc, "wall_s": wall_s, "spans": tr.spans}}, fh)
"""


def unnested_overlaps(spans) -> list:
    """(outer, inner) names of span pairs where one starts inside the
    other but does not lie inside it as its descendant."""
    by_id = {s["id"]: s for s in spans}

    def ancestors(span):
        p = span["parent"]
        while p is not None:
            yield p
            p = by_id[p]["parent"]

    return [(a["name"], b["name"]) for a in spans for b in spans
            if a is not b and a["t0"] <= b["t0"] < a["t1"]
            and (b["t1"] > a["t1"] or a["id"] not in ancestors(b))]


class TestTrace:
    def test_overlap_scan_flags_only_unnested_spans(self):
        def span(i, parent, t0, t1):
            return {"id": i, "parent": parent, "name": f"s{i}", "t0": t0,
                    "t1": t1}

        nested = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0),
                  span(2, 1, 2.0, 3.0), span(3, 0, 4.0, 9.0)]
        assert unnested_overlaps(nested) == []
        # a span recorded under the main thread's stack while a sibling ran
        assert unnested_overlaps(nested + [span(4, 0, 2.5, 5.0)]) == [
            ("s1", "s4"), ("s2", "s4"), ("s4", "s3")]

    def test_traced_offdiag_keeps_one_nested_span_tree(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        result = tmp_path / "traced.json"
        res = subprocess.run(
            [sys.executable, "-c", TRACED_RUN.format(perfbench=PERFBENCH),
             str(result), "offdiag", "--n", "256", "--seed", "7",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(
                os.path.dirname(cli.__file__))})
        assert res.returncode == 0, res.stderr
        run = json.loads(result.read_text())
        assert run["rc"] in (cli.EXIT_OK, cli.EXIT_ASSERT)
        runtime = json.loads((tmp_path / "offdiag" / "manifest.json")
                             .read_text())["runtime"]
        if runtime["numpy_dgesdd"] and runtime["blas_pinned"]:
            assert runtime["kernel_workers"] == 2
        spans = run["spans"]
        assert any(s["name"] == "norms.kernel_block_norms" for s in spans)
        assert tracer.root_problems(spans, run["wall_s"], 1e-3) == []
        assert unnested_overlaps(spans) == []


class TestPlot:
    def test_plot_from_csv(self, tmp_path):
        csv = tmp_path / "data.csv"
        report.write_csv(str(csv), ("t", "y"),
                         [(t, t**-0.5) for t in np.geomspace(0.01, 1, 10)])
        out = tmp_path / "plot.svg"
        res = run_cli("plot", str(csv), "--x", "t", "--y", "y", "--logx",
                      "--logy", "--guide", "-0.5", "--out", str(out))
        assert res.returncode == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")

    def test_missing_column_is_config_error(self, tmp_path):
        csv = tmp_path / "data.csv"
        report.write_csv(str(csv), ("a", "b"), [(1, 2)])
        res = run_cli("plot", str(csv), "--x", "t", "--y", "b",
                      "--out", str(tmp_path / "p.svg"))
        assert res.returncode == 2


    def test_missing_csv_is_config_error(self, tmp_path):
        res = run_cli("plot", str(tmp_path / "none.csv"), "--x", "t",
                      "--y", "y")
        assert res.returncode == 2
        assert res.stderr.startswith(f"cannot read {tmp_path / 'none.csv'}:")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("guide", ["abc", "nan", "0.5,inf"])
    def test_bad_guide_is_config_error(self, tmp_path, guide):
        csv = tmp_path / "data.csv"
        report.write_csv(str(csv), ("t", "y"), [(1, 2)])
        res = run_cli("plot", str(csv), "--x", "t", "--y", "y",
                      "--guide", guide, "--out", str(tmp_path / "p.svg"))
        assert res.returncode == 2
        assert res.stderr.startswith(f"bad --guide {guide!r}: ")
        assert len(res.stderr.splitlines()) == 1
        assert not (tmp_path / "p.svg").exists()

    def test_empty_csv_is_config_error(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        res = run_cli("plot", str(csv), "--x", "t", "--y", "y")
        assert res.returncode == 2
        assert res.stderr == f"cannot read {csv}: no header line\n"


class TestReport:
    def test_fmt_round_trips(self):
        assert report.fmt(True) == "true"
        assert report.fmt(3) == "3"
        assert report.fmt(0.1) == "0.1"
        assert float(report.fmt(1 / 3)) == 1 / 3
        assert report.fmt(np.float64(0.25)) == "0.25"
        assert report.fmt(math.inf) == "inf"

    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        rows = [(1, 0.5, "x"), (2, 1 / 3, "y")]
        report.write_csv(path, ("i", "v", "s"), rows)
        header, got = report.read_csv(path)
        assert header == ["i", "v", "s"]
        assert float(got[1][1]) == 1 / 3

    def test_manifest_write_and_flags(self, tmp_path):
        man = report.RunManifest({"seed": 7}, str(tmp_path), False)
        man.add_check("a", 1.0, "<=", 2.0, "fine")
        man.add_check("b", 3.0, "<=", 2.0, "broken")
        man.write()
        path = str(tmp_path / "manifest.json")
        body = json.load(open(path))
        assert body["all_pass"] is False
        assert body["config"] == {"seed": 7, "report_only": False}
        assert not os.path.exists(path + ".tmp")

    @pytest.mark.parametrize("op, value, passes, slack", [
        ("<=", 1.0, True, 1.0), ("<=", 2.0, True, 0.0),
        ("<=", 3.0, False, -1.0), (">=", 3.0, True, 1.0),
        (">=", 2.0, True, 0.0), (">=", 1.0, False, -1.0),
        (">", 3.0, True, 1.0), (">", 2.0, False, 0.0),
        (">", 1.0, False, -1.0)])
    def test_check_compares_its_value_with_its_bound(self, tmp_path, op,
                                                     value, passes, slack):
        man = report.RunManifest({}, str(tmp_path), False)
        man.add_check("a", value, op, 2.0, "why")
        man.add_check("nan", math.nan, op, 2.0)
        man.write()
        body = json.load(open(tmp_path / "manifest.json"))
        a, nan = body["checks"]
        assert a == {"name": "a", "pass": passes, "value": value, "op": op,
                     "bound": 2.0, "slack": slack, "detail": "why"}
        assert nan["pass"] is False and math.isnan(nan["slack"])
        assert body["all_pass"] is False

    def test_manifest_records_peak_memory(self, tmp_path, monkeypatch):
        man = report.RunManifest({}, str(tmp_path), False)
        man.write()
        peak = json.load(open(tmp_path / "manifest.json"))["peak_rss_mb"]
        # numpy alone keeps a process above 10 MB
        assert 10.0 < peak <= report.peak_rss_mb()
        monkeypatch.setattr(report, "resource", None)
        man.write()
        body = json.load(open(tmp_path / "manifest.json"))
        assert body["peak_rss_mb"] is None

    def test_manifest_records_resident_memory_at_its_start(self, tmp_path,
                                                           monkeypatch):
        man = report.RunManifest({}, str(tmp_path), False)
        # the experiment's own 64 MB, held until the manifest is written;
        # the kernel's peak and current counts may differ by a few pages,
        # far less than that
        held = np.ones(8 << 20)
        man.write()
        del held
        body = json.load(open(tmp_path / "manifest.json"))
        assert 10.0 < body["rss_start_mb"]
        assert body["rss_start_mb"] + 32.0 <= body["peak_rss_mb"]
        monkeypatch.setattr(report, "STATM", str(tmp_path / "missing"))
        assert report.rss_mb() is None
        report.RunManifest({}, str(tmp_path), False).write()
        body = json.load(open(tmp_path / "manifest.json"))
        assert body["rss_start_mb"] is None

    def test_manifest_lists_its_tables_and_report_only_records_no_check(
            self, tmp_path):
        out = tmp_path / "exp"
        man = report.RunManifest({}, str(out), True)
        man.table("t.csv", ("i", "v"), [(1, 0.5)])
        for op in report.CHECK_OPS:
            man.add_check("a", math.nan, op, 0.0, "ignored")
        man.write()
        body = json.load(open(out / "manifest.json"))
        assert body["files"] == [str(out / "t.csv")]
        assert body["checks"] == [] and body["all_pass"] is True
        assert report.read_csv(str(out / "t.csv")) == (["i", "v"],
                                                       [["1", "0.5"]])

    def test_svg_plot_empty_series(self):
        text = report.svg_plot([("empty", [], [])], logx=True, logy=True)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_svg_plot_guides(self):
        xs = list(np.geomspace(0.01, 1, 5))
        ys = [x**-0.5 for x in xs]
        text = report.svg_plot([("s", xs, ys)], logx=True, logy=True,
                               guides=[(-0.5, "slope -1/2")])
        assert "dasharray" in text
        ET.fromstring(text)


class TestDeterminism:
    def test_repeat_run_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = run_cli("distance", "--seed", "7", "--out", str(out))
            assert res.returncode == 0
        ca = (a / "distance" / "distance.csv").read_bytes()
        cb = (b / "distance" / "distance.csv").read_bytes()
        assert ca == cb

    def test_csv_identical_across_blas_thread_counts(self, tmp_path):
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            res = run_cli("riesz", "--n", "256", "--seed", "7",
                          "--out", str(out),
                          env={"OPENBLAS_NUM_THREADS": threads,
                               "OMP_NUM_THREADS": threads})
            assert res.returncode == 0, res.stderr
            csvs.append((out / "riesz" / "riesz.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_offdiag_csv_identical_at_one_and_two_workers(self, tmp_path,
                                                          monkeypatch):
        csvs, workers = [], []
        for count in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, c=count: set(range(c)),
                                raising=False)
            out = tmp_path / str(count)
            # the coarse grid fails the time-exponent check: exit 1
            code = cli.main(["offdiag", "--n", "256", "--seed", "7",
                             "--out", str(out)])
            assert code in (cli.EXIT_OK, cli.EXIT_ASSERT)
            csvs.append((out / "offdiag" / "offdiag.csv").read_bytes())
            body = json.loads((out / "offdiag" / "manifest.json").read_text())
            assert set(body["runtime"]) == {"blas_pinned", "kernel_workers",
                                            "numpy_dgesdd"}
            workers.append(body["runtime"]["kernel_workers"])
            threads = (body["runtime"]["numpy_dgesdd"]
                       and body["runtime"]["blas_pinned"])
        assert csvs[0] == csvs[1]
        assert workers == ([1, 2] if threads else [1, 1])

    def test_warns_when_blas_threads_cannot_be_pinned(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(norms, "_blas_libraries", lambda: [])
        code = cli.main(["solve", "--n", "64", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        err = capsys.readouterr().err
        assert "BLAS threads are not pinned" in err
        body = json.loads((tmp_path / "solve" / "manifest.json").read_text())
        assert body["runtime"] == {"blas_pinned": False}

    def test_unsettable_blas_library_is_reported(self, monkeypatch):
        libs = norms._blas_libraries() + ["libm.so.6"]
        monkeypatch.setattr(norms, "_blas_libraries", lambda: libs)
        restore, pinned = norms.pin_blas_threads()
        restore()
        assert not pinned
