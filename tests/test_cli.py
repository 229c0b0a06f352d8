import csv
import hashlib
import re

import numpy as np
import pytest

from lorentzheat import cli, harmonic
from lorentzheat.cli import ConfigError, parse_config
from lorentzheat.params import INF

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
                                            ("scheme.dt_cap", "inf"),
                                            ("scheme.theta", "2"),
                                            ("scheme.theta", "0.4"),
                                            ("scheme.theta", "nan"),
                                            ("scheme.rannacher", "-1")])
    def test_scheme_value_rejected(self, key, value, tmp_path, capsys):
        # dt_cap <= 0 or inf never advances t (or divides by zero), and
        # theta > 1 would silently run backward Euler with a longer step
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(f"{key} = {value}")
        code, _ = run_cli(tmp_path, f"{key} = {value}\n", "evolve")
        assert code == 1
        assert "invalid input" in capsys.readouterr().err

    def test_scheme_range_ends_accepted(self):
        cfg = parse_config("scheme.theta = 1\nscheme.rannacher = 0\nscheme.dt_cap = 1e-3")
        assert (cfg["scheme.theta"], cfg["scheme.rannacher"]) == (1.0, 0)
        assert parse_config("scheme.theta = 0.5")["scheme.theta"] == 0.5

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
        (out / "a.dat").write_text("1\n")
        (out / "b.dat").write_text("2\n")
        first = cli.Manifest(out, "sha", 0)
        first.add_constant("x", 1.0)
        first.add_constant("y", 2.0)
        first.add_warning("old warning")
        first.add_file(out / "a.dat")
        first.add_file(out / "b.dat")
        first.write()
        (out / "b.dat").write_text("3\n")
        second = cli.Manifest(out, "sha2", 1)
        second.add_constant("y", 4.0)
        second.add_warning("new warning")
        second.add_file(out / "b.dat")
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
