import csv
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import types
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lorentzheat import cli, harmonic, iterated, params, rates, semigroup, spectral
from lorentzheat.cli import ConfigError, parse_config
from lorentzheat.params import INF, LorentzParams

FAST_COMMON = """
dimension = 3
grid.r_min = 1e-6
grid.r_max = 1e3
grid.points = 768
modes.k_max = 2
time.t_min = 0.1
time.t_max = 100
time.points_per_decade = 3
family.j_max = 3
alphas = 0
lorentz = 1,inf,1,inf
"""


class TestConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg["dimension"] == 3
        assert cfg["potential.kind"] == "hardy"
        assert cfg["lorentz"][0].p == 1.0 and cfg["lorentz"][0].q == INF

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("potential.lamda = 2.0")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("grid.points = many")

    def test_bad_lorentz_tuple(self):
        with pytest.raises(ConfigError):
            parse_config("lorentz = 2,1,2,1")  # p > q

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="time range"):
            parse_config("time.t_min = 5\ntime.t_max = 1")

    def test_boundary_margin_enforced(self):
        with pytest.raises(ConfigError, match="20 sqrt"):
            parse_config("time.t_max = 1e6\ngrid.r_max = 1e3")

    def test_alpha_above_k_max_rejected(self):
        # upper_envelope_J of order alpha needs h_k for every k <= alpha
        with pytest.raises(ConfigError, match=r"alphas .* modes\.k_max"):
            parse_config("alphas = 0,1,3\nmodes.k_max = 2")
        assert parse_config("alphas = 0,1,3\nmodes.k_max = 3")["alphas"] == [0, 1, 3]

    @pytest.mark.parametrize("key, value", [("modes.scan", "0,2"),
                                            ("modes.scan", "-1"),
                                            ("evolve.k", "3"),
                                            ("evolve.k", "-1")])
    def test_mode_outside_k_max_rejected(self, key, value, tmp_path, capsys):
        # ProfileSet.h raises KeyError outside 0..k_max; the config catches it
        text = f"{key} = {value}\nmodes.k_max = 1\n"
        with pytest.raises(ConfigError, match=re.escape(key) + r" .*modes\.k_max"):
            parse_config(text)
        command = "evolve" if key == "evolve.k" else "norm-scan"
        code, _ = run_cli(tmp_path, text, command)
        assert code == 1
        assert "invalid input" in capsys.readouterr().err
        assert parse_config(f"{key} = 1\nmodes.k_max = 1")[key] in (1, [1])

    @pytest.mark.parametrize("key, value", [("scheme.dt_cap", "-64"),
                                            ("scheme.dt_cap", "0"),
                                            ("scheme.dt_cap", "inf")])
    def test_scheme_value_rejected(self, key, value, tmp_path, capsys):
        # dt_cap <= 0 or inf never advances t (or divides by zero)
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(f"{key} = {value}")
        code, _ = run_cli(tmp_path, f"{key} = {value}\n", "evolve")
        assert code == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("time.points_per_decade", "0"),
                                            ("time.points_per_decade", "-4"),
                                            ("family.j_max", "-1"),
                                            ("delta", "0"),
                                            ("delta", "-1"),
                                            ("delta", "inf"),
                                            ("delta", "nan")])
    def test_scan_value_rejected(self, key, value, tmp_path, capsys):
        # the finite values ran norm-scan with exit 0: 2 time points, a family
        # of the bump alone, or an empty lower_env cell at every t
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(f"{key} = {value}")
        code, _ = run_cli(tmp_path, f"grid.points = 256\n{key} = {value}\n",
                          "norm-scan")
        assert code == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("alphas", "", "alphas is empty"),
        ("modes.scan", "", r"modes\.scan is empty"),
        ("lorentz", " ; ", "lorentz is empty"),
        ("alphas", "0,1,0", "alphas repeats 0"),
        ("modes.scan", "0,0", r"modes\.scan repeats 0"),
        ("lorentz", "1,inf,1,inf; 2,inf,2,inf; 1.0,inf,1,inf",
         r"lorentz repeats \(1,1\)->\(inf,inf\)")],
        ids=["alphas_empty", "scan_empty", "lorentz_empty", "alphas_repeated",
             "scan_repeated", "lorentz_repeated"])
    @pytest.mark.parametrize("argv", [["norm-scan"], ["verify", "T4.2"]],
                             ids=["norm-scan", "verify_T4.2"])
    def test_empty_or_repeated_list_rejected(self, key, value, message, argv,
                                             tmp_path, capsys):
        # an empty list ran with exit 0 and wrote only a manifest; a repeated
        # entry wrote each of its CSVs, or its verdict row, twice
        with pytest.raises(ConfigError, match=message):
            parse_config(f"{key} = {value}")
        code, out = run_cli(tmp_path, f"grid.points = 256\n{key} = {value}\n", *argv)
        assert code == 1
        assert re.search("invalid input: .*" + message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_evolve_scale_rejected(self, value, tmp_path, capsys):
        # 0, -1 and nan ran evolve with exit 0 and wrote all-zero profiles
        text = f"evolve.data = hk_bump\nevolve.scale = {value}\n"
        with pytest.raises(ConfigError, match=r"evolve\.scale"):
            parse_config(text)
        code, _ = run_cli(tmp_path, f"grid.points = 256\n{text}", "evolve")
        assert code == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "evolve"])
    def test_unknown_evolve_data_rejected(self, command, tmp_path, capsys):
        # the typo passed every command but evolve, which failed it only
        # after the profile build
        with pytest.raises(ConfigError, match=r"unknown evolve\.data 'gausian'"):
            parse_config("evolve.data = gausian")
        code, out = run_cli(tmp_path, "grid.points = 256\nevolve.data = gausian\n",
                            command)
        assert code == 1
        assert "unknown evolve.data" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["potential.lambda", "potential.amplitude",
                                     "potential.kappa", "grid.r_min", "grid.r_max",
                                     "time.t_min", "time.t_max", "scheme.dt_cap",
                                     "delta", "evolve.scale"])
    def test_nonfinite_float_rejected(self, key, value):
        # nan passed `r_min <= 0 or r_max <= r_min` and hung `harmonic`;
        # other keys failed later with exit 2 or a traceback
        with pytest.raises(ConfigError, match=re.escape(key) + ".*not a finite"):
            parse_config(f"{key} = {value}")

    def test_scheme_range_ends_accepted(self):
        cfg = parse_config("scheme.dt_cap = 1e-3")
        assert cfg["scheme.dt_cap"] == 1e-3
        cfg = parse_config(f"scheme.dt_cap = {semigroup.DT_CAP_MAX!r}")
        assert cfg["scheme.dt_cap"] == semigroup.DT_CAP_MAX

    @pytest.mark.parametrize("value", ["1e8", "10000.000000000002"])
    def test_dt_cap_above_limit_rejected(self, value):
        # the time schedule is listed up front, ~9 dt_cap steps on evolve_flow's
        # window: 1e8 would ask for ~1e9 of them
        with pytest.raises(ConfigError, match=r"scheme\.dt_cap must be in"):
            parse_config(f"scheme.dt_cap = {value}")

    @pytest.mark.parametrize("line", ["scheme.theta = 0.5", "scheme.rannacher = 12"])
    def test_deleted_scheme_key_rejected(self, line, tmp_path, capsys):
        # the flow runs one scheme; its start-up and theta are not settings
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(line)
        code, _ = run_cli(tmp_path, line + "\n", "evolve")
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_readme_config_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("rejected. Example:\n\n```\n", 1)[1].split("```", 1)[0]
        parse_config(block)
        keys = {line.split("#", 1)[0].partition("=")[0].strip()
                for line in block.splitlines() if line.split("#", 1)[0].strip()}
        assert keys == set(cli.DEFAULTS)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nseed = 7  # trailing\n")
        assert cfg["seed"] == 7

    def test_hash_stable_under_formatting(self):
        a = parse_config("seed = 1\ndimension = 3")
        b = parse_config("dimension = 3\n# note\nseed = 1")
        assert a.sha256() == b.sha256()


def run_cli(tmp_path, config_text, *argv):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    out = tmp_path / "out"
    return cli.main(["--config", str(cfg_path), "--out", str(out), *argv]), out


class TestCommands:
    def test_classify_hardy(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, FAST_COMMON + "potential.lambda = 2.0\n",
                            "classify")
        assert code == 0
        text = (out / "classify.txt").read_text()
        assert "criticality = subcritical" in text
        assert "0 0 1 1 1 0" in text  # k omega d A1 A2 B row for A_0 = 1
        assert (out / "manifest.txt").exists()

    def test_classify_zero(self, tmp_path):
        code, out = run_cli(tmp_path, FAST_COMMON + "potential.kind = zero\n",
                            "classify")
        assert code == 0
        text = (out / "classify.txt").read_text()
        assert "2 6 5 2 2 0" in text  # A_k = k row at k = 2

    def test_classify_reads_h0_on_the_config_grid(self, tmp_path, monkeypatch):
        calls = []
        eager = harmonic.solve_h
        monkeypatch.setattr(harmonic, "solve_h",
                            lambda spec, k, grid=None: calls.append(
                                (k, len(grid))) or eager(spec, k, grid))
        code, out = run_cli(tmp_path, FAST_COMMON + "potential.kind = inverse_power\n",
                            "classify")
        assert code == 0
        assert calls == [(0, 768)]
        assert "criticality = subcritical" in (out / "classify.txt").read_text()

    def test_classify_ambiguous_fit_exits_2(self, tmp_path, capsys):
        # a slow r^-2.5 far field has not settled by r = 1e3: the fitted
        # exponent of h_0 lies between the roots
        code, out = run_cli(tmp_path, FAST_COMMON + "potential.kind = inverse_power\n"
                            "potential.amplitude = 4.0\npotential.kappa = 2.5\n",
                            "classify")
        assert code == 2
        assert "criticality: unknown (exponent fit ambiguous; assert explicitly)" \
            in capsys.readouterr().out
        assert not (out / "classify.txt").exists()

    def test_harmonic_writes_profiles_and_constants(self, tmp_path):
        code, out = run_cli(tmp_path, FAST_COMMON, "harmonic")
        assert code == 0
        assert (out / "harmonic_k0.dat").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "constant c_0" in manifest

    def test_evolve_gaussian(self, tmp_path):
        cfgtext = FAST_COMMON + "potential.kind = zero\ntime.t_max = 10\n" \
            "time.points_per_decade = 1\n"
        code, out = run_cli(tmp_path, cfgtext, "evolve")
        assert code == 0
        files = sorted(out.glob("evolve_k0_t*.dat"))
        assert len(files) == 3
        r, v = np.loadtxt(files[0]).T
        assert np.all(np.isfinite(v)) and v.max() > 0

    @pytest.mark.parametrize("data", ["ball", "annulus"])
    def test_evolve_indicator_data(self, data, tmp_path):
        cfgtext = FAST_COMMON + "potential.kind = zero\ntime.t_max = 10\n" \
            f"time.points_per_decade = 1\nevolve.data = {data}\n"
        code, out = run_cli(tmp_path, cfgtext, "evolve")
        assert code == 0
        files = sorted(out.glob("evolve_k0_t*.dat"))
        assert len(files) == 3
        for path in files:
            r, v = np.loadtxt(path).T
            assert np.all(np.isfinite(v)) and v.max() > 0

    def test_invalid_config_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, "nonsense = 1\n", "classify")
        assert code == 1

    def test_verify_skips_wrong_family(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, FAST_COMMON + "potential.kind = zero\n",
                            "verify", "T7.1")
        assert code == 0  # skip is not a failure
        text = (out / "verdicts_T7.1.csv").read_text()
        assert "SKIP" in text

    def test_verify_floor_passes(self, tmp_path):
        code, out = run_cli(tmp_path, FAST_COMMON + "potential.lambda = 2.0\n",
                            "verify", "T4.2")
        assert code == 0
        text = (out / "verdicts_T4.2.csv").read_text()
        assert "PASS" in text and "FAIL" not in text

    def test_verify_solves_only_the_mode_it_reads(self, tmp_path, monkeypatch):
        calls = []
        eager = harmonic.solve_h
        monkeypatch.setattr(harmonic, "solve_h",
                            lambda spec, k, grid=None: calls.append(k) or
                            eager(spec, k, grid))
        cfgtext = FAST_COMMON + "potential.lambda = 2.0\nmodes.k_max = 6\n"
        code, _ = run_cli(tmp_path, cfgtext, "verify", "T4.2")
        assert code == 0
        assert calls == [0]

    def test_verify_records_the_flow_warnings(self, tmp_path):
        # r_max = 20 sqrt(t_max): the widest test data reach the absorbing
        # boundary at the last times, and the flow says so
        cfgtext = """
dimension = 3
potential.lambda = 2.0
grid.r_max = 1e2
grid.points = 512
time.t_min = 0.25
time.t_max = 25
time.points_per_decade = 4
lorentz = 1,inf,1,inf
alphas = 0
"""
        warned = {}
        for argv in (["norm-scan"], ["verify", "T4.2"]):
            code, out = run_cli(tmp_path / argv[0], cfgtext, *argv)
            assert code == 0
            warned[argv[0]] = [line for line in
                               (out / "manifest.txt").read_text().splitlines()
                               if line.startswith("warning ")]
        assert any("boundary contamination" in w for w in warned["norm-scan"])
        assert warned["verify"] == warned["norm-scan"]

    def test_norm_scan_at_the_critical_coupling_warns_nothing(self, tmp_path):
        # both of lower_envelope's ball norms are inf here for some alpha,
        # and main - soft / t would read inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(tmp_path, CRITICAL, "norm-scan")
        assert code == 0
        with (out / "norm_scan_k0_alpha0_p1qinfs1tinf.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(row[1] == "inf" for row in rows)

    def test_verify_floor_skips_an_infinite_series(self, tmp_path):
        # no rate can be fitted to an inf series: it is skipped like an
        # unbounded tuple of the other recipes, and the rest is judged
        code, out = run_cli(tmp_path, CRITICAL, "verify", "T4.2")
        assert code == 0
        with (out / "verdicts_T4.2.csv").open(newline="") as fh:
            status = {row[1]: row[2] for row in list(csv.reader(fh))[1:]}
        assert len(status) == 9
        passed = {s for s, v in status.items() if v == "PASS"}
        assert passed == {"alpha=0 (1,1)->(2,2)", "alpha=1 (1,1)->(2,2)"}
        assert set(status.values()) == {"SKIP", "PASS"}

    def test_verify_floor_fits_a_nan_series(self):
        # a NaN is no evidence of an unbounded norm: it still fails the fit
        ps = types.SimpleNamespace(spec=types.SimpleNamespace(dimension=3))
        ts = np.geomspace(1.0, 100.0, 9)
        with pytest.raises(rates.RateFitError):
            cli._judge_floor(ps, LorentzParams(1, 2, 1, 2), 0, ts, np.full(9, np.nan))

    @pytest.mark.parametrize("argv, t_min, t_max", [(["norm-scan"], "1e-3", "1e-1"),
                                                    (["verify", "T4.2"], "1e-5", "1e-3")])
    def test_family_without_a_ball_at_t_min_exits_1(self, argv, t_min, t_max, tmp_path,
                                                   monkeypatch, capsys):
        # sqrt t_min <= 4 r_min: at t_min = 1e-3 the family is the bump alone,
        # whose norm-scan ran with exit 0 and an empirical_lower far below the
        # envelope; at 1e-5 it is empty at every t, and the flow of no column
        # raised a traceback.  Refused before any flow
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(semigroup, "evolve_modes", no_flow)
        cfgtext = ("grid.r_min = 1e-2\ngrid.r_max = 1e3\ngrid.points = 256\n"
                   f"time.t_min = {t_min}\ntime.t_max = {t_max}\n"
                   "time.points_per_decade = 1\nlorentz = 1,inf,1,inf\nalphas = 0\n")
        code, out = run_cli(tmp_path, cfgtext, *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "time.t_min" in err \
            and "grid.r_min" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("data, scale", [("ball", "1e-8"), ("hk_bump", "1e-8"),
                                             ("gaussian", "1e-10")])
    def test_evolve_of_a_datum_zero_on_the_grid_exits_1(self, data, scale, tmp_path,
                                                       capsys):
        # radius scale sqrt(0.1) below r_min = 1e-8: every node of the datum
        # is 0 (the gaussian underflows), and evolve wrote zeros with exit 0
        code, out = run_cli(tmp_path, f"grid.points = 256\nevolve.data = {data}\n"
                            f"evolve.scale = {scale}\ntime.t_max = 1\n", "evolve")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "zero at every grid node" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("theorem, times", [
        ("T4.2", "time.t_max = 50\ntime.points_per_decade = 2\n"),
        ("T4.2", "time.t_min = 1\ntime.t_max = 50\ntime.points_per_decade = 8\n"),
        ("T7.1", "time.t_max = 50\ntime.points_per_decade = 2\n"),
    ], ids=["T4.2-6-points", "T4.2-50x", "T7.1-6-points"])
    def test_verify_on_a_time_grid_no_rate_fits_exits_1(self, theorem, times, tmp_path,
                                                        capsys):
        # 6 times from 0.1 to 50, or 15 over a 50x span: every fit fails, and
        # the run exited 2 as a numerical failure after the whole sweep
        code, out = run_cli(tmp_path, FAST_COMMON + times, "verify", theorem)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "time.points_per_decade" in err
        assert not (out / f"verdicts_{theorem}.csv").exists()

    def test_verify_that_skips_every_row_ignores_the_time_grid(self, tmp_path):
        # T7.3 under Hardy fits nothing: every row is a SKIP, whatever the grid
        code, out = run_cli(tmp_path, FAST_COMMON + "time.t_max = 50\n"
                            "time.points_per_decade = 2\n", "verify", "T7.3")
        assert code == 0
        with (out / "verdicts_T7.3.csv").open(newline="") as fh:
            assert {row[2] for row in list(csv.reader(fh))[1:]} == {"SKIP"}

    def test_verify_two_sided_writes_four_columns(self, tmp_path):
        cfgtext = FAST_COMMON + "potential.kind = zero\nalphas = 0,1,3\n" \
            "modes.k_max = 3\n"
        code, out = run_cli(tmp_path, cfgtext, "verify", "T1.1")
        assert code == 0
        files = sorted(p.name for p in out.glob("T1.1_*.dat"))
        # the two-sided envelope covers orders <= 2 only: no row for alpha = 3
        assert files == ["T1.1_0_p1qinfs1tinf.dat", "T1.1_1_p1qinfs1tinf.dat"]
        for name in files:
            assert np.loadtxt(out / name).shape[1] == 4
        with (out / "verdicts_T1.1.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[1].split()[0] for r in rows] == ["alpha=0", "alpha=1"]
        assert all(r[2] == "PASS" for r in rows)
        manifest = (out / "manifest.txt").read_text()
        for name in files + ["verdicts_T1.1.csv"]:
            assert f"file {name} sha256=" in manifest

    def test_verify_upper_writes_three_columns_and_constants(self, tmp_path):
        cfgtext = FAST_COMMON + "potential.lambda = 2.0\nalphas = 0,1\n" \
            "lorentz = 1,inf,1,inf; 2,inf,2,inf\n"
        code, out = run_cli(tmp_path, cfgtext, "verify", "T3.1")
        assert code == 0
        files = sorted(p.name for p in out.glob("T3.1_*.dat"))
        assert len(files) == 4
        manifest = (out / "manifest.txt").read_text()
        for name in files:
            assert np.loadtxt(out / name).shape[1] == 3
            assert f"file {name} sha256=" in manifest
            alpha, slug = name[len("T3.1_"):-len(".dat")].split("_")
            assert f"constant T3.1_C_alpha{alpha}_{slug} = " in manifest
        assert "file verdicts_T3.1.csv sha256=" in manifest

    def test_verify_family_rate_fits_the_predicted_model(self, tmp_path):
        # Theorem 7.3 predicts a pure power for kappa > N; a free log factor
        # fits -0.8148 (log +0.52) on this window and fails the rate
        cfgtext = """
dimension = 3
potential.kind = inverse_power
potential.kappa = 4.0
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = 768
modes.k_max = 2
time.t_min = 30
time.t_max = 3000
time.points_per_decade = 4
family.j_max = 3
lorentz = 2,inf,2,inf
alphas = 1
"""
        code, out = run_cli(tmp_path, cfgtext, "verify", "T7.3")
        assert code == 0
        with (out / "verdicts_T7.3.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 1 and rows[0][2] == "PASS"
        assert "(log +0.00) vs predicted -0.7500" in rows[0][3]

    @pytest.mark.parametrize("theorem, cfgtext", [
        ("T1.1", "alphas = 3\nmodes.k_max = 3\n"),
        ("T3.1", "potential.kind = zero\nalphas = 5\nmodes.k_max = 5\n"),
    ], ids=["T1.1", "T3.1"])
    def test_verify_with_no_order_to_judge_exits_1(self, theorem, cfgtext, tmp_path,
                                                   monkeypatch, capsys):
        # the recipe's order cut leaves nothing: refused before any profile or
        # flow, not a pass with a header-only verdicts file
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(semigroup, "operator_norm_sweep", no_flow)
        code, out = run_cli(tmp_path, "grid.points = 512\n" + cfgtext, "verify", theorem)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "leaves none to judge" in err
        assert not (out / f"verdicts_{theorem}.csv").exists()

    def test_verify_upper_cut_is_the_iterated_derivative_limit(self):
        # T3.1's envelopes take derivative_iterated up to the judged order
        assert cli.RECIPES["T3.1"][1] == iterated.DERIVATIVE_ORDER_MAX
        ps = harmonic.ProfileSet.build(spectral.PotentialSpec.zero(3),
                                       k_max=0, grid=np.geomspace(1e-4, 1e2, 128))
        itg = ps.h(0).derived(iterated.iterate_I, 1)
        assert np.all(np.isfinite(iterated.derivative_iterated(
            itg, iterated.DERIVATIVE_ORDER_MAX)))
        with pytest.raises(ValueError, match="supported to order"):
            iterated.derivative_iterated(itg, iterated.DERIVATIVE_ORDER_MAX + 1)

    @pytest.mark.parametrize("command, key", [("evolve", "evolve.k"),
                                              ("norm-scan", "modes.scan")])
    def test_nonfinite_start_ratio_exits_2(self, command, key, tmp_path, capsys):
        # h_6(1e-51) ~ 1e-314 is subnormal, so the start ratio 1/h_6 overflows
        cfgtext = ("potential.lambda = 2.0\ngrid.r_min = 1e-51\ngrid.points = 512\n"
                   f"modes.k_max = 6\ntime.points_per_decade = 1\n{key} = 6\n")
        code, out = run_cli(tmp_path, cfgtext, command)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "phi/h_6" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("kind, r_max, argv", [
        ("hardy", 1e100, "evolve"), ("hardy", 1e100, "norm-scan"),
        ("hardy", 1e100, "verify T4.2"), ("zero", 1e300, "evolve"),
        ("zero", 1e300, "verify T7.2"), ("hardy", 1e100, "harmonic")])
    def test_overflow_on_a_far_grid_exits_2(self, kind, r_max, argv, tmp_path, capsys):
        # h_0^2 r^2 overflows at r_max = 1e100 under Hardy lambda = 2 (h_0 = r)
        # and at 1e300 under V = 0 (h_0 = 1): the flow's matrix is not finite;
        # h_3 ~ r^3.27 itself overflows at 1e100
        k_max = 6 if argv == "harmonic" else 1
        code, out = run_cli(tmp_path, f"potential.kind = {kind}\ngrid.r_max = {r_max}\n"
                            f"grid.points = 512\nmodes.k_max = {k_max}\ntime.t_max = 1\n",
                            *argv.split())
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("numerical failure: ") and "overflow" in err
        assert not list(out.iterdir())

    def test_norm_scan_off_diagonal_tuples(self, tmp_path):
        # sigma != p and theta = inf with q < inf: the layer-cake and weak norms
        cfgtext = """
dimension = 3
potential.lambda = 2.0
grid.points = 512
modes.k_max = 2
time.t_min = 0.1
time.t_max = 1
time.points_per_decade = 1
alphas = 0,1,2
lorentz = 1,2,1,inf; 2,4,1,inf; 2,4,2,4
"""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(tmp_path, cfgtext, "norm-scan")
        assert code == 0
        paths = sorted(out.glob("norm_scan_k0_*.csv"))
        assert len(paths) == 9
        for path in paths:
            with path.open(newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert len(header) == 6 and len(rows) == 2
            for row in rows:
                assert len(row) == 6
                value = float(row[1])
                assert math.isfinite(value) and value > 0.0, path.name


class TestDeterminism:
    CFG = FAST_COMMON + "potential.lambda = 2.0\ntime.t_max = 10\n" \
        "time.points_per_decade = 2\n"

    def test_norm_scan_byte_identical(self, tmp_path):
        code1, out1 = run_cli(tmp_path / "a", self.CFG, "norm-scan")
        code2, out2 = run_cli(tmp_path / "b", self.CFG, "norm-scan")
        assert code1 == code2 == 0
        files1 = sorted(p.name for p in out1.glob("*.csv"))
        files2 = sorted(p.name for p in out2.glob("*.csv"))
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_only_a_mode_that_is_read_can_fail_the_run(self, tmp_path, monkeypatch):
        eager = harmonic.solve_h

        def failing_mode_1(spec, k, grid=None):
            if k == 1:
                raise harmonic.HarmonicSolveError("mode 1 integration failed")
            return eager(spec, k, grid)

        monkeypatch.setattr(harmonic, "solve_h", failing_mode_1)
        code, out = run_cli(tmp_path / "a", self.CFG, "norm-scan")
        assert code == 0 and list(out.glob("norm_scan_k0_*.csv"))
        code, out = run_cli(tmp_path / "b", self.CFG + "modes.scan = 1\n",
                            "norm-scan")
        assert code == 2 and not list(out.glob("norm_scan_*.csv"))

    def test_failed_sweep_fails_the_command(self, tmp_path, monkeypatch, capsys):
        # a numerical failure in a mode's sweep maps to exit 2, as in every
        # other command, rather than a warning and missing CSVs
        def failing_sweep(*args, **kwargs):
            raise np.linalg.LinAlgError("matrix not positive definite")

        monkeypatch.setattr(semigroup, "operator_norm_sweep", failing_sweep)
        code, out = run_cli(tmp_path, self.CFG, "norm-scan")
        assert code == 2 and not list(out.glob("norm_scan_*.csv"))
        assert "numerical failure" in capsys.readouterr().err

    def test_csv_schema(self, tmp_path):
        _, out = run_cli(tmp_path, self.CFG, "norm-scan")
        csv = next(out.glob("norm_scan_*.csv")).read_text().splitlines()
        assert csv[0] == "t,empirical_lower,upper_env,lower_env,phi_alpha,case_tag"
        first = csv[1].split(",")
        assert len(first) == 6
        assert float(first[1]) > 0.0


class TestReport:
    def test_report_aggregates_and_flags_missing(self, tmp_path):
        cfgtext = FAST_COMMON + "potential.lambda = 2.0\n"
        code, out = run_cli(tmp_path, cfgtext, "verify", "T4.2")
        assert code == 0
        code2 = cli.main(["--config", str(tmp_path / "run.cfg"),
                          "--out", str(out), "report"])
        assert code2 == 0
        summary = (out / "summary.txt").read_text()
        assert "T4.2" in summary and "MISSING T7.1" in summary

    def test_verdict_and_summary_rows_parse_to_four_fields(self, tmp_path):
        # subjects such as "alpha=0 (1,1)->(inf,inf)" hold commas
        cfgtext = FAST_COMMON + "potential.lambda = 2.0\n"
        code, out = run_cli(tmp_path, cfgtext, "verify", "T4.2")
        assert code == 0
        assert cli.main(["--config", str(tmp_path / "run.cfg"),
                         "--out", str(out), "report"]) == 0
        for name in ("verdicts_T4.2.csv", "summary.csv"):
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["theorem", "subject", "status", "detail"]
            assert len(rows) > 1 and all(len(row) == 4 for row in rows)
        with (out / "summary.csv").open(newline="") as fh:
            first = list(csv.reader(fh))[1]
        assert first[:3] == ["T4.2", "alpha=0 (1,1)->(inf,inf)", "PASS"]
        assert "T4.2 alpha=0 (1,1)->(inf,inf) PASS" in (out / "summary.txt").read_text()

    def test_report_exits_3_on_fail_and_2_on_integrity_error(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "run.cfg").write_text("")
        cli.write_csv(out / "verdicts_T7.3.csv", "theorem,subject,status,detail",
                      [("T7.3", "alpha=1 (2,2)->(inf,inf)", "FAIL", "fitted"),
                       ("T7.3", "alpha=0 (2,2)->(inf,inf)", "PASS", "fitted")])
        argv = ["--config", str(tmp_path / "run.cfg"), "--out", str(out), "report"]
        assert cli.main(argv) == 3
        assert "T7.3 alpha=1 (2,2)->(inf,inf) FAIL" in (out / "summary.txt").read_text()
        # an integrity error outranks a FAIL verdict
        (out / "manifest.txt").write_text("file gone.dat sha256=00\n")
        assert cli.main(argv) == 2
        assert "INTEGRITY missing gone.dat" in (out / "summary.txt").read_text()

    def test_tampering_detected_after_repeated_reports(self, tmp_path):
        # each report rewrites manifest.txt; the verify file lines must stay
        cfgtext = FAST_COMMON + "potential.lambda = 2.0\n"
        _, out = run_cli(tmp_path, cfgtext, "verify", "T4.2")
        argv = ["--config", str(tmp_path / "run.cfg"), "--out", str(out), "report"]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
        listed = [line.split()[1] for line in
                  (out / "manifest.txt").read_text().splitlines()
                  if line.startswith("file ")]
        victim = next(out.glob("T4.2_*.dat"))
        assert sorted(listed) == sorted(
            [victim.name, "verdicts_T4.2.csv", "summary.txt", "summary.csv"])
        victim.write_text("tampered\n")
        assert cli.main(argv) == 2
        assert "checksum mismatch" in (out / "summary.txt").read_text()

    def test_manifest_keeps_lines_of_other_commands(self, tmp_path):
        out = tmp_path
        first = cli.Manifest(out, "sha", 0)
        first.add_constant("x", 1.0)
        first.add_constant("y", 2.0)
        first.add_warning("old warning")
        first.add_file(out / "a.dat", b"1\n")
        first.add_file(out / "b.dat", b"2\n")
        first.write()
        second = cli.Manifest(out, "sha2", 1)
        second.add_constant("y", 4.0)
        second.add_warning("new warning")
        second.add_file(out / "b.dat", b"3\n")
        second.write()
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[1:3] == ["config_sha256 = sha2", "seed = 1"]
        body = [line for line in lines if not line.startswith(
            ("artifact", "config_sha256", "seed", "wall_clock"))]
        b_digest = hashlib.sha256(b"3\n").hexdigest()
        a_digest = hashlib.sha256(b"1\n").hexdigest()
        assert body == ["constant x = 1.0000000000e+00",
                        "constant y = 4.0000000000e+00",
                        "warning old warning", "warning new warning",
                        f"file a.dat sha256={a_digest}",
                        f"file b.dat sha256={b_digest}"]

    def test_manifest_digests_match_the_files_on_disk(self, tmp_path):
        # column files are hashed from the bytes in memory: every digest of
        # evolve, harmonic and verify must still be that of the file on disk
        cfgtext = FAST_COMMON + "potential.kind = zero\nalphas = 0,1\n" \
            "evolve.data = ball\n"
        for argv in (["evolve"], ["harmonic"], ["verify", "T1.1"], ["verify", "T4.2"]):
            code, out = run_cli(tmp_path, cfgtext, *argv)
            assert code == 0
        recorded = {}
        for line in (out / "manifest.txt").read_text().splitlines():
            if line.startswith("file "):
                name, digest = line[5:].rsplit(" sha256=", 1)
                recorded[name] = digest
        assert set(recorded) == {p.name for p in out.iterdir()} - {"manifest.txt"}
        assert sum(name.endswith(".dat") for name in recorded) == 10 + 3 + 2 + 2
        for name, digest in recorded.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_report_detects_tampering(self, tmp_path):
        cfgtext = FAST_COMMON + "potential.lambda = 2.0\n"
        _, out = run_cli(tmp_path, cfgtext, "verify", "T4.2")
        victim = next(out.glob("T4.2_*.dat"))
        victim.write_text("tampered\n")
        code = cli.main(["--config", str(tmp_path / "run.cfg"),
                         "--out", str(out), "report"])
        assert code == 2
        assert "checksum mismatch" in (out / "summary.txt").read_text()


def _fmt_join_columns(path, *columns):
    """The per-element writer that write_columns replaced."""
    rows = zip(*columns)
    path.write_text("\n".join(" ".join(cli._fmt(c) for c in row)
                              for row in rows) + "\n")


def _per_row_columns(path, *columns):
    """The one-% -per-row writer that write_columns replaced."""
    row = " ".join([cli._FMT] * len(columns))
    values = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    path.write_text("\n".join([row % v for v in values]) + "\n")


class TestWriteColumns:
    def test_matches_per_element_formatting(self, tmp_path):
        special = [INF, -INF, np.nan, 0.0, -0.0, 5e-324, -5e-324,
                   1.7976931348623157e308, 2.2250738585072014e-308, 1.0, -1.0,
                   0.1, 1e-8, 123456789.0]
        rng = np.random.default_rng(3)
        a = np.array(special + list(rng.standard_normal(50) * 10.0 ** rng.integers(
            -300, 300, 50)))
        b = np.roll(a, 5)
        c = np.geomspace(1e-8, 1e4, a.size)
        for cols in ((a,), (a, b), (c, a, b), (c[:0], a[:0]), (c[:1], a[:1]),
                     (a[:3], b[:3])):
            cli.write_columns(tmp_path / "new.dat", *cols)
            _fmt_join_columns(tmp_path / "old.dat", *cols)
            _per_row_columns(tmp_path / "row.dat", *cols)
            new = (tmp_path / "new.dat").read_bytes()
            assert new == (tmp_path / "old.dat").read_bytes()
            assert new == (tmp_path / "row.dat").read_bytes()

    def test_column_text_matches_writing_the_values(self, tmp_path):
        # evolve and harmonic format the grid once and place it in each
        # file: the bytes are those of writing both columns
        grid = np.geomspace(1e-8, 1e4, 40)
        values = np.array([-1.5, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e-310, INF, -INF, np.nan, 1.7976931348623157e308,
                           -123.456] + list(np.linspace(-3.0, 3.0, 28)))
        text = cli.column_text(grid)
        for vals in (values, values[::-1], np.zeros_like(values)):
            for cols, text_cols in (((grid, vals), (text, vals)),
                                    ((vals, grid), (vals, text)),
                                    ((grid, vals, grid), (text, vals, text))):
                _per_row_columns(tmp_path / "row.dat", *cols)
                assert cli.write_columns(tmp_path / "text.dat", *text_cols) \
                    == (tmp_path / "row.dat").read_bytes()

    def test_near_ties_and_powers_of_ten(self, tmp_path):
        # the doubles nearest d.dddddddddd5e^k and a few ulp around them,
        # where the fast path must give way to '%.10e', and values just
        # below powers of ten, whose rounding carries into the exponent
        rng = np.random.default_rng(11)
        digits = rng.integers(10 ** 10, 10 ** 11, 4000)
        exps = rng.integers(-309, 309, 4000)
        ties = np.array([float(Decimal(f"{d}5e{e - 11}")) for d, e in zip(digits, exps)])
        near = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, INF),
                               np.nextafter(np.nextafter(ties, 0.0), 0.0)])
        powers = 10.0 ** rng.integers(-300, 309, 4000).astype(float)
        with np.errstate(over="ignore"):
            below = powers * (1.0 - rng.integers(0, 3000, 4000) * 1e-14)
        for cols in ((near,), (-near[::4], below), (below,)):
            _per_row_columns(tmp_path / "row.dat", *cols)
            assert cli.write_columns(tmp_path / "new.dat", *cols) \
                == (tmp_path / "row.dat").read_bytes()

    @pytest.mark.parametrize("error", [-0.5, -3e-11, 3e-11, 0.5])
    def test_bytes_do_not_depend_on_log10(self, tmp_path, monkeypatch, error):
        # a log10 that errs (numpy's loops differ by CPU) moves values
        # between the fast path and '%.10e', never a byte; the values lie
        # just below powers of ten, where an exponent one too high would
        # round at the wrong digit
        rng = np.random.default_rng(5)
        powers = 10.0 ** rng.integers(-290, 300, 3000).astype(float)
        values = powers * (1.0 - rng.integers(0, 1000, 3000) * 1e-13)
        _per_row_columns(tmp_path / "row.dat", values)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
        assert cli.write_columns(tmp_path / "new.dat", values) \
            == (tmp_path / "row.dat").read_bytes()

    @given(data=st.data(), width=st.integers(1, 3), rows=st.integers(0, 12))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_row_writer(self, tmp_path, data, width, rows):
        values = st.one_of(_BIT_PATTERNS, _NEAR_TIES, _AT_EXPONENTS,
                           st.sampled_from(_SPECIAL))
        cols = [np.array(data.draw(st.lists(values, min_size=rows, max_size=rows)),
                         dtype=float) for _ in range(width)]
        _per_row_columns(tmp_path / "row.dat", *cols)
        written = cli.write_columns(tmp_path / "new.dat", *cols)
        assert written == (tmp_path / "new.dat").read_bytes()
        assert written == (tmp_path / "row.dat").read_bytes()

    def test_empty_and_one_row_files(self, tmp_path):
        for cols in ((np.empty(0),), (np.empty(0), np.empty(0), np.empty(0)),
                     (np.array([-0.0]),), (np.array([1e-299]), np.array([INF]))):
            _per_row_columns(tmp_path / "row.dat", *cols)
            assert cli.write_columns(tmp_path / "new.dat", *cols) \
                == (tmp_path / "row.dat").read_bytes()
        assert (tmp_path / "new.dat").read_bytes() == b"1.0000000000e-299 inf\n"

    def test_flowed_profiles_rarely_fall_back(self):
        # evolve_flow's datum and grid range at a quarter of its nodes: under
        # 1% of the values are left to '%.10e' (most of its exact zeros and
        # 3-digit exponents take the fast path)
        cfg = parse_config(EVOLVE_FLOW)
        ps = cli.build_profiles(cfg)
        ts = cli.time_grid(cfg)
        hk, phi = cli._initial_datum(cfg, ps, ts[0])
        ws, _ = semigroup.evolve_modes(hk, phi / hk.values, list(ts), cfg["scheme.dt_cap"])
        values = np.concatenate([hk.values * w[:, 0] for w in ws])
        assert np.count_nonzero(values == 0.0) > 0.05 * values.size
        slow = cli._format_into(np.empty((values.size, 5), np.uint32), values)
        assert 0 < slow < 0.01 * values.size


# the benchmark's evolve_flow config at seed 0, on 4096 nodes
EVOLVE_FLOW = """
dimension = 3
potential.kind = hardy
potential.lambda = 2.0
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = 4096
modes.k_max = 1
time.t_min = 0.1
time.t_max = 1000.0
time.points_per_decade = 4
scheme.dt_cap = 256
evolve.data = hk_bump
evolve.k = 1
"""

_SPECIAL = [0.0, -0.0, INF, -INF, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-298, 1e-299, 9.9999999999999e-299, 1e308]

# every double: subnormals, infinities and nans included
_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


def _decimal_value(digits, exponent, tail=""):
    return float(Decimal(f"{digits}{tail}e{exponent - 10 - len(tail)}"))


# the double nearest d.dddddddddd5e^k, at any exponent of a double
_NEAR_TIES = st.builds(lambda d, e, sign: sign * _decimal_value(d, e, "5"),
                       st.integers(10 ** 10, 10 ** 11 - 1), st.integers(-323, 308),
                       st.sampled_from([1.0, -1.0]))

# 11-digit values and near-ties at the exponents where the text or the
# fast path changes
_AT_EXPONENTS = st.builds(
    lambda d, e, tail, sign: sign * _decimal_value(d, e, tail),
    st.integers(10 ** 10, 10 ** 11 - 1),
    st.sampled_from([-99, 99, -100, 100, -298, -299, 308]),
    st.sampled_from(["", "5", "4999", "5001"]), st.sampled_from([1.0, -1.0]))


class TestImports:
    @pytest.mark.parametrize("spec", ["hardy(3, 2.0)", "inverse_power(3, 1.0, 4.0)"],
                             ids=["hardy", "inverse_power"])
    def test_runs_load_no_scipy_package(self, spec):
        # Hardy profiles are closed form and others come from the built-in
        # RK45; the flow loads scipy's LAPACK extension by file: no profile,
        # norm or flow imports scipy or any of its subpackages
        code = f"""
import sys
import numpy as np
import lorentzheat.cli
from lorentzheat import harmonic, semigroup, spectral
from lorentzheat.params import RadialProfile
from lorentzheat.quadrature import make_grid
ps = harmonic.ProfileSet.build(spectral.PotentialSpec.{spec}, k_max=2,
                               grid=make_grid(1e-6, 1e3, 256))
for k in range(3):
    ps.h(k)
grid = np.geomspace(0.01, 10.0, 64)
assert 0.0 < RadialProfile(grid, np.cos(grid), 3).lorentz_norm(2, 2) < np.inf
w0 = np.where(ps.grid <= 1.0, 1.0, 0.0)
ws, _ = semigroup.evolve_modes(ps.h(1), np.stack([w0, 2.0 * w0], axis=1), [0.1, 1.0])
assert len(ws) == 2 and all(np.isfinite(w).all() for w in ws)
print(" ".join(sorted(sys.modules)))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        loaded = done.stdout.split()
        assert "lorentzheat.semigroup._flapack" in loaded
        assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


# the benchmark's scan_hardy and verify_bounded configs at seed 0
SCAN_HARDY = """
dimension = 3
potential.kind = hardy
potential.lambda = 2.0
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = 1024
modes.k_max = 2
modes.scan = 0
time.t_min = 0.1
time.t_max = 1.0
time.points_per_decade = 1
lorentz = 1,inf,1,inf; 1,2,1,2
alphas = 0,1,2
"""

VERIFY_BOUNDED = """
dimension = 3
potential.kind = inverse_power
potential.amplitude = 1.0
potential.kappa = 4.0
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = 1024
modes.k_max = 6
time.t_min = 30.0
time.t_max = 3000.0
time.points_per_decade = 4
lorentz = 2,inf,2,inf
alphas = 1
"""

# the critical Hardy coupling lambda = -0.25, h_0 = r^-0.5: every empirical
# bound into L^inf is inf
CRITICAL = """
dimension = 3
potential.kind = hardy
potential.lambda = -0.25
grid.r_min = 1e-6
grid.r_max = 1e3
grid.points = 768
modes.k_max = 2
time.t_min = 0.5
time.t_max = 200
time.points_per_decade = 4
family.j_max = 3
alphas = 0,1,2
lorentz = 1,inf,1,inf; 2,inf,2,inf; 1,2,1,2
"""

# T3.1 at every derivative order its envelopes cover, on a bounded
# potential whose profiles are RK45 solves: iterate_I reaches n = 2 and
# derivative_h order 4
VERIFY_ALPHA4 = """
dimension = 3
potential.kind = inverse_power
potential.amplitude = 1.0
potential.kappa = 4.0
grid.r_min = 1e-6
grid.r_max = 1e3
grid.points = 768
modes.k_max = 4
time.t_min = 0.5
time.t_max = 200
time.points_per_decade = 1
lorentz = 1,inf,1,inf; 1,2,1,2
alphas = 0,1,2,3,4
"""


def _spy(monkeypatch, module, name, key):
    """Wrap module.name; returns {key(args): number of calls}."""
    calls = {}
    inner = getattr(module, name)

    def spy(*args):
        calls[key(args)] = calls.get(key(args), 0) + 1
        return inner(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestNormWork:
    @pytest.mark.parametrize("config, argv", [(SCAN_HARDY, ["norm-scan"]),
                                              (VERIFY_BOUNDED, ["verify", "T4.2"])],
                             ids=["scan_hardy", "verify_bounded"])
    def test_sigma_p_and_sup_norms_build_no_segments(self, tmp_path, monkeypatch,
                                                      config, argv):
        calls = _spy(monkeypatch, params, "_build_segments", lambda args: None)
        code, _ = run_cli(tmp_path, config, *argv)
        assert code == 0
        assert calls == {}

    def test_radial_derivative_once_per_alpha_and_time(self, tmp_path, monkeypatch):
        # every derivative profile of the sweep comes from one
        # radial_derivative call per (alpha, t): 3 alphas at 2 times
        calls = _spy(monkeypatch, semigroup, "radial_derivative",
                     lambda args: (args[3], args[1]))
        code, _ = run_cli(tmp_path, SCAN_HARDY, "norm-scan")
        assert code == 0
        assert len(calls) == 6 and set(calls.values()) == {1}
        assert {alpha for alpha, _ in calls} == {0, 1, 2}

    def test_envelope_work_done_once(self, tmp_path, monkeypatch):
        # gamma ratios once per (profile, p, sigma, t), envelope_nabla_J once
        # per (k, n, alpha), over the norm-scan's 2 times, 3 alphas, 2 tuples
        gammas = _spy(monkeypatch, harmonic, "gamma_ratio",
                      lambda args: (args[0].k,) + args[1:])
        envelopes = _spy(monkeypatch, iterated, "envelope_nabla_J",
                         lambda args: (args[0].k, args[1].n, args[2]))
        code, _ = run_cli(tmp_path, SCAN_HARDY, "norm-scan")
        assert code == 0
        assert len(gammas) == 8 and set(gammas.values()) == {1}
        assert len(envelopes) == 7 and set(envelopes.values()) == {1}

    def test_profiles_built_once(self, tmp_path, monkeypatch):
        # each derivative of h_k once per order, lower_envelope's r^(2-alpha)
        # h_k once per (k, alpha): 3 alphas, k <= alpha
        derivs = _spy(monkeypatch, harmonic, "_derivative_values",
                      lambda args: (args[0].k, args[1]))
        weighted = _spy(monkeypatch, harmonic, "weighted_h",
                        lambda args: (args[0].k, args[1]))
        code, _ = run_cli(tmp_path, SCAN_HARDY, "norm-scan")
        assert code == 0
        assert set(weighted) == {(0, 2.0), (0, 1.0), (1, 1.0), (0, 0.0), (1, 0.0),
                                 (2, 0.0)}
        assert set(weighted.values()) == {1}
        assert derivs and set(derivs.values()) == {1}

    def test_high_order_work_done_once(self, tmp_path, monkeypatch):
        # every build through HarmonicProfile.derived runs once per key, up
        # to alpha = 4: gamma ratios, I_k^n, kernel envelopes and h_k's
        # derivatives
        def kna(args):
            return (args[0].k, args[1], args[2])

        gammas = _spy(monkeypatch, harmonic, "gamma_ratio",
                      lambda args: (args[0].k,) + args[1:])
        iterates = _spy(monkeypatch, iterated, "iterate_I",
                        lambda args: (args[0].k, args[1]))
        kernels = _spy(monkeypatch, iterated, "kernel_envelope", kna)
        envelopes = _spy(monkeypatch, iterated, "envelope_nabla_J",
                         lambda args: (args[0].k, args[1].n, args[2]))
        derivs = _spy(monkeypatch, harmonic, "_derivative_values",
                      lambda args: (args[0].k, args[1]))
        code, _ = run_cli(tmp_path, VERIFY_ALPHA4, "verify", "T3.1")
        # what is counted here, not the verdicts, is this test's subject
        assert code in (0, 3)
        expected = {(k, m, a) for a in range(5) for k in range(a + 1)
                    for m in range((a - k) // 2 + 1)}
        assert set(kernels) == set(envelopes) == expected
        assert set(iterates) == {(k, m) for k, m, _ in expected}
        assert (0, 2) in iterates
        assert {ell for _, ell in derivs} == set(range(5))
        assert len(gammas) == 4  # both tuples have p = 1: one dual pair, 4 times
        for calls in (gammas, iterates, kernels, envelopes, derivs):
            assert set(calls.values()) == {1}
