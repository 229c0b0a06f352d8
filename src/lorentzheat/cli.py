"""Command-line front end.

Subcommands
-----------
classify    exponent table, criticality, case tags, admissibility evidence
harmonic    solve the mode profiles, write plot data and fitted constants
evolve      flow one configured datum, write profiles at the target times
norm-scan   empirical lower bounds vs predicted envelopes as CSV
verify ID   run one theorem-verification recipe (T1.1 T3.1 T4.2 T7.1..T7.4)
report      aggregate verdicts and manifest into a summary

Configs are flat `key = value` text with strict unknown-key rejection; see
DEFAULTS below for the schema.  Exit codes: 0 ok/pass, 1 invalid input,
2 numerical failure, 3 verification FAIL.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, harmonic, rates, semigroup, spectral
from .params import INF, LambdaMembershipError, LorentzParams
from .quadrature import make_grid
from .semigroup import SchemeParams


class ConfigError(ValueError):
    pass


def _parse_lorentz_list(text):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"lorentz tuple needs 4 entries, got {chunk!r}")
        vals = [INF if p == "inf" else float(p) for p in parts]
        out.append(LorentzParams(*vals))
    if not out:
        raise ConfigError("lorentz list is empty")
    return out


def _parse_int_list(text):
    return [int(p) for p in text.replace(";", ",").split(",") if p.strip()]


# key -> (parser, default as text); parsed lazily so error messages name keys
DEFAULTS = {
    "dimension": (int, "3"),
    "potential.kind": (str, "hardy"),
    "potential.lambda": (float, "2.0"),
    "potential.amplitude": (float, "1.0"),
    "potential.kappa": (float, "4.0"),
    "grid.r_min": (float, "1e-8"),
    "grid.r_max": (float, "1e4"),
    "grid.points": (int, "4096"),
    "modes.k_max": (int, "6"),
    "modes.scan": (_parse_int_list, "0"),
    "time.t_min": (float, "0.1"),
    "time.t_max": (float, "100.0"),
    "time.points_per_decade": (int, "4"),
    "lorentz": (_parse_lorentz_list, "1,inf,1,inf"),
    "alphas": (_parse_int_list, "0,1"),
    "family.j_max": (int, "6"),
    "scheme.theta": (float, "0.5"),
    "scheme.dt_cap": (float, "64"),
    "scheme.rannacher": (int, "12"),
    "delta": (float, "0.25"),
    "seed": (int, "0"),
    "evolve.data": (str, "gaussian"),
    "evolve.k": (int, "0"),
    "evolve.scale": (float, "1.0"),
}


@dataclass
class RunConfig:
    values: dict
    raw_text: str

    def __getitem__(self, key):
        return self.values[key]

    def sha256(self) -> str:
        canon = "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))
        return hashlib.sha256(canon.encode()).hexdigest()


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text; unknown keys and bad values are fatal."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = DEFAULTS[key][0]
        try:
            values[key] = parser(raw)
        except (ValueError, LambdaMembershipError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    for key, (parser, default) in DEFAULTS.items():
        values.setdefault(key, parser(default))
    _validate_config(values)
    return RunConfig(values, text)


def _validate_config(v):
    if v["grid.r_min"] <= 0 or v["grid.r_max"] <= v["grid.r_min"]:
        raise ConfigError("grid range must satisfy 0 < r_min < r_max")
    if v["time.t_min"] <= 0 or v["time.t_max"] <= v["time.t_min"]:
        raise ConfigError("time range must satisfy 0 < t_min < t_max")
    if v["grid.points"] < 64:
        raise ConfigError("grid.points too small")
    if v["potential.kind"] not in ("hardy", "zero", "inverse_power"):
        raise ConfigError(f"unknown potential.kind {v['potential.kind']!r}")
    if any(a < 0 for a in v["alphas"]):
        raise ConfigError("alphas must be nonnegative")
    # dt_cap <= 0 or inf stalls the time schedule (dt = 0 at t = 0), and a
    # theta above 1 would run backward Euler with a stretched step
    if not 0.0 < v["scheme.dt_cap"] < math.inf:
        raise ConfigError("scheme.dt_cap must be positive and finite")
    if not 0.5 <= v["scheme.theta"] <= 1.0:
        raise ConfigError("scheme.theta must lie in [0.5, 1]")
    if v["scheme.rannacher"] < 0:
        raise ConfigError("scheme.rannacher must be nonnegative")
    for key, ks in (("modes.scan", v["modes.scan"]), ("evolve.k", [v["evolve.k"]])):
        bad = [k for k in ks if not 0 <= k <= v["modes.k_max"]]
        if bad:
            raise ConfigError(
                f"{key} holds {bad[0]}, outside 0..modes.k_max = {v['modes.k_max']}")
    if max(v["alphas"], default=0) > v["modes.k_max"]:
        raise ConfigError(
            f"alphas reach {max(v['alphas'])} > modes.k_max = {v['modes.k_max']}: "
            "the envelopes of order alpha use h_k for every k <= alpha")
    r_needed = 20.0 * math.sqrt(v["time.t_max"])
    if v["grid.r_max"] < r_needed:
        raise ConfigError(
            f"grid.r_max must be >= 20 sqrt(t_max) = {r_needed:g} to keep the "
            "absorbing boundary passive")


def build_potential(cfg: RunConfig) -> spectral.PotentialSpec:
    kind = cfg["potential.kind"]
    n = cfg["dimension"]
    if kind == "hardy":
        return spectral.PotentialSpec.hardy(n, cfg["potential.lambda"])
    if kind == "zero":
        return spectral.PotentialSpec.zero(n)
    return spectral.PotentialSpec.inverse_power(
        n, cfg["potential.amplitude"], cfg["potential.kappa"])


def build_profiles(cfg: RunConfig) -> harmonic.ProfileSet:
    spec = build_potential(cfg)
    grid = make_grid(cfg["grid.r_min"], cfg["grid.r_max"], cfg["grid.points"])
    return harmonic.ProfileSet.build(spec, k_max=cfg["modes.k_max"], grid=grid)


def scheme_from(cfg: RunConfig) -> SchemeParams:
    return SchemeParams(theta=cfg["scheme.theta"], dt_cap=cfg["scheme.dt_cap"],
                        rannacher_steps=cfg["scheme.rannacher"])


def time_grid(cfg: RunConfig) -> np.ndarray:
    t0, t1 = cfg["time.t_min"], cfg["time.t_max"]
    decades = math.log10(t1 / t0)
    n = max(2, int(round(decades * cfg["time.points_per_decade"])) + 1)
    return np.geomspace(t0, t1, n)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

_FMT = "%.10e"


def _fmt(x) -> str:
    if x is None:
        return ""
    if x == INF:
        return "inf"
    return _FMT % x


@dataclass
class Manifest:
    out_dir: Path
    config_sha: str
    seed: int
    constants: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    files: list = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)

    def add_constant(self, name, value):
        self.constants.append((name, value))

    def add_warning(self, message):
        if message not in self.warnings:
            self.warnings.append(message)

    def add_file(self, path: Path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files.append((path.name, digest))

    def write(self):
        """Write manifest.txt; the constant, warning and file lines of an
        earlier manifest there are kept unless this command rewrote them."""
        own = {
            "constant": [f"constant {n} = {_fmt(v)}" for n, v in self.constants],
            "warning": [f"warning {w}" for w in self.warnings],
            "file": [f"file {name} sha256={digest}" for name, digest in self.files],
        }
        path = self.out_dir / "manifest.txt"
        earlier = path.read_text().splitlines() if path.exists() else []
        rewritten = {_manifest_key(line) for lines in own.values() for line in lines}
        lines = [f"artifact = lorentzheat {__version__}",
                 f"config_sha256 = {self.config_sha}",
                 f"seed = {self.seed}",
                 f"wall_clock_seconds = {time.monotonic() - self.started:.3f}"]
        for kind, kind_lines in own.items():
            lines += [line for line in earlier if line.startswith(kind + " ")
                      and _manifest_key(line) not in rewritten]
            lines += kind_lines
        path.write_text("\n".join(lines) + "\n")


def _manifest_key(line: str) -> str:
    """What a manifest line is about: a constant's or a file's name, or the
    whole line of a warning."""
    if line.startswith("constant "):
        return line.partition(" = ")[0]
    if line.startswith("file "):
        return line.rpartition(" sha256=")[0]
    return line


def write_csv(path: Path, header: str, rows) -> None:
    """Header line, then one row per line; fields holding commas are quoted."""
    with path.open("w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerows(
            [c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


def write_columns(path: Path, *columns) -> None:
    """Space-separated float columns, one row per line.  '%.10e' renders
    inf, -inf and nan as _fmt does; the whole file is one % on the row
    template repeated per row."""
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = " ".join([_FMT] * len(columns))
    path.write_text(("\n".join([row] * len(values)) + "\n")
                    % tuple(values.ravel().tolist()))


def _tuple_slug(lp: LorentzParams) -> str:
    def s(x):
        return "inf" if x == INF else ("%g" % x)
    return f"p{s(lp.p)}q{s(lp.q)}s{s(lp.sigma)}t{s(lp.theta)}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    try:
        ps = build_profiles(cfg)
    except spectral.AmbiguousClassificationError:
        print("criticality: unknown (exponent fit ambiguous; assert explicitly)")
        return 2
    spec, table = ps.spec, ps.table
    ok, evidence = spectral.check_nonnegativity(spec)
    sups = spectral.check_inverse_square_smoothness(spec, ell_max=2)
    lines = [f"potential = {spec.label}", f"dimension = {spec.dimension}",
             f"criticality = {ps.criticality}",
             f"nonnegative = {ok} ({evidence})",
             "smoothness sups " + " ".join(f"l={l}:{v:.4g}" for l, v in sups.items()),
             "k omega d A1 A2 B"]
    for k in range(table.k_max + 1):
        row = table.row(k)
        lines.append(f"{k} {row['omega']:g} {row['d']} "
                     f"{row['A1']:.12g} {row['A2']:.12g} {row['B']}")
    for alpha in cfg["alphas"]:
        try:
            tag = rates.classify_cases(table, alpha)
            lines.append(f"case alpha={alpha}: {tag.render()}")
        except rates.AmbiguousCaseError as exc:
            lines.append(f"case alpha={alpha}: ambiguous ({exc})")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    path = out / "classify.txt"
    path.write_text(text)
    manifest.add_file(path)
    if not ok:
        manifest.add_warning("nonnegativity evidence failed")
    return 0


def cmd_harmonic(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    ps = build_profiles(cfg)
    for k, hp in sorted(ps.hks.items()):
        path = out / f"harmonic_k{k}.dat"
        write_columns(path, hp.grid, hp.values)
        manifest.add_file(path)
        if hp.c is not None:
            manifest.add_constant(f"c_{k}", hp.c)
            manifest.add_constant(f"c_{k}_residual", hp.fit_residual)
        manifest.add_constant(f"A1_{k}", hp.inner_exponent)
        manifest.add_constant(f"A2_{k}_fitted", hp.fitted_outer_exponent)
    print(f"solved modes k<=({cfg['modes.k_max']}) for {ps.spec.label}; "
          f"criticality {ps.criticality}")
    return 0


def _initial_datum(cfg: RunConfig, ps: harmonic.ProfileSet, t_ref: float):
    kind = cfg["evolve.data"]
    k = cfg["evolve.k"]
    hk = ps.h(k)
    r = hk.grid
    scale = cfg["evolve.scale"] * math.sqrt(t_ref)
    if kind == "gaussian":
        return hk, np.exp(-r ** 2 / (2.0 * scale ** 2))
    if kind == "ball":
        return hk, np.where(r <= scale, 1.0, 0.0)
    if kind == "annulus":
        return hk, np.where((r > scale / 2.0) & (r <= scale), 1.0, 0.0)
    if kind == "hk_bump":
        return hk, np.where(r <= scale, hk.values, 0.0)
    raise ConfigError(f"unknown evolve.data {kind!r}")


def cmd_evolve(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    ps = build_profiles(cfg)
    ts = time_grid(cfg)
    hk, phi = _initial_datum(cfg, ps, ts[0])
    states = semigroup.evolve_mode(hk, phi, list(ts), scheme_from(cfg))
    for st in states:
        path = out / f"evolve_k{hk.k}_t{st.t:.6g}.dat"
        write_columns(path, st.grid, st.v_values())
        manifest.add_file(path)
        for w in st.warnings:
            manifest.add_warning(w)
    print(f"evolved {cfg['evolve.data']} datum on mode k={hk.k} "
          f"to {len(states)} times")
    return 0


def _empirical_table(cfg, ps, k, alphas, lps, ts):
    """{(alpha, lp_idx): [estimate per t]} via the batched sweep."""
    return semigroup.operator_norm_sweep(ps.h(k), alphas, lps, list(ts),
                                         scheme=scheme_from(cfg),
                                         j_max=cfg["family.j_max"])


def cmd_norm_scan(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    ps = build_profiles(cfg)
    ts = time_grid(cfg)
    lps = cfg["lorentz"]
    alphas = cfg["alphas"]
    for k in cfg["modes.scan"]:
        ps.h(k)  # a failed profile solve fails the command, not just this scan
        try:
            table = _empirical_table(cfg, ps, k, alphas, lps, ts)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            manifest.add_warning(f"mode k={k} scan failed: {exc}")
            continue
        for i, lp in enumerate(lps):
            for alpha in alphas:
                try:
                    tag = rates.classify_cases(ps.table, alpha).render()
                except rates.AmbiguousCaseError:
                    tag = "ambiguous"
                rows = []
                for est in table[(alpha, i)]:
                    for w in est.warnings:
                        manifest.add_warning(w)
                    # per-row prediction failures are recorded, not fatal
                    try:
                        upper = rates.upper_envelope_J(ps, lp, alpha, est.t)
                        lower = rates.lower_envelope(ps, lp, alpha, est.t,
                                                     delta=cfg["delta"])
                        phi = rates.phi_alpha(ps, lp, alpha, est.t) \
                            if alpha <= 2 else None
                    except (ArithmeticError, ValueError) as exc:
                        manifest.add_warning(
                            f"envelope failure k={k} alpha={alpha} "
                            f"t={est.t:g}: {exc}")
                        upper = lower = phi = None
                    rows.append((est.t, est.value, upper, lower, phi, tag))
                path = out / f"norm_scan_k{k}_alpha{alpha}_{_tuple_slug(lp)}.csv"
                write_csv(path, "t,empirical_lower,upper_env,lower_env,"
                                "phi_alpha,case_tag", rows)
                manifest.add_file(path)
    print(f"norm scan complete: modes {cfg['modes.scan']}, "
          f"{len(alphas) * len(lps)} series each")
    return 0


# -- verification recipes -----------------------------------------------------
#
# A judge reads the mode-0 empirical series `vals` of one tuple and derivative
# order at the times `ts`.  It returns a SKIP reason, or the tuple
# (.dat columns, (name, value) manifest constant or None, passed, detail).

EXP_TOL = 0.05
LOG_TOL = 0.3


def _judge_two_sided(ps, lp, alpha, ts, vals):
    phis = np.array([rates.phi_alpha(ps, lp, alpha, t) for t in ts])
    if not np.all(np.isfinite(phis)):
        return "envelope infinite for this tuple"
    uppers = np.array([rates.upper_envelope_J(ps, lp, alpha, t) for t in ts])
    r1 = vals / phis
    r2 = uppers / phis
    band1 = float(np.max(r1) / np.min(r1))
    band2 = float(np.max(r2) / np.min(r2))
    return ((ts, vals, phis, uppers), None, band1 <= 10.0 and band2 <= 10.0,
            f"bands empirical/phi {band1:.3g}, upper/phi {band2:.3g}")


def _judge_upper(ps, lp, alpha, ts, vals):
    uppers = np.array([rates.upper_envelope_J(ps, lp, alpha, t) for t in ts])
    if not np.all(np.isfinite(uppers)):
        return "upper envelope infinite (membership)"
    ratio = vals / uppers
    c_fit = float(np.max(ratio))
    drift = float(np.max(ratio) / max(np.min(ratio), 1e-300))
    return ((ts, vals, uppers), ("C", c_fit),
            math.isfinite(c_fit) and drift <= 10.0,
            f"envelope constant {c_fit:.3g}, ratio drift {drift:.3g}")


def _judge_floor(ps, lp, alpha, ts, vals):
    free = rates.free_exponent(lp, alpha, ps.spec.dimension)
    fit = rates.fit_rate(ts, vals)
    return ((ts, vals), None, fit.exponent >= free - EXP_TOL,
            f"fitted {fit.exponent:+.4f} >= free {free:+.4f} - {EXP_TOL}")


def _judge_family_rates(theorem, ps, lp, alpha, ts, vals):
    pred = rates.closed_form_rate(ps, lp, alpha, regime="large-t")
    if pred.theorem != theorem:
        return f"potential routes to {pred.theorem}"
    if not pred.applicable:
        why = "; ".join(f"{c}" for c, ok, _ in pred.hypotheses if not ok)
        return f"hypothesis failed: {why}"
    # fit the model the prediction names: a free log factor can trade
    # exponent for log power where the theorem rules the log out
    fit = rates.fit_rate(ts, vals, "power-log" if pred.log_power else "pure-power")
    ok = abs(fit.exponent - pred.exponent) <= EXP_TOL and \
        abs(fit.log_power - (pred.log_power or 0.0)) <= LOG_TOL
    return ((ts, vals), ("fit_b", fit.exponent), ok,
            f"fitted {fit.exponent:+.4f} (log {fit.log_power:+.2f}) "
            f"vs predicted {pred.exponent:+.4f} (log {pred.log_power:+.2f})")


# theorem -> (judge, largest derivative order it covers)
RECIPES = {
    "T1.1": (_judge_two_sided, 2),
    "T3.1": (_judge_upper, INF),
    "T4.2": (_judge_floor, INF),
    **{tid: (partial(_judge_family_rates, tid), INF)
       for tid in ("T7.1", "T7.2", "T7.3", "T7.4")},
}
THEOREM_IDS = tuple(RECIPES)


def cmd_verify(cfg: RunConfig, out: Path, manifest: Manifest, theorem: str) -> int:
    judge, alpha_max = RECIPES[theorem]
    ps = build_profiles(cfg)
    ts = time_grid(cfg)
    lps = cfg["lorentz"]
    alphas = [a for a in cfg["alphas"] if a <= alpha_max]
    table = _empirical_table(cfg, ps, 0, alphas, lps, ts)
    verdicts = []
    for i, lp in enumerate(lps):
        slug = _tuple_slug(lp)
        for alpha in alphas:
            subject = f"alpha={alpha} {lp.label()}"
            vals = np.array([e.value for e in table[(alpha, i)]])
            judged = judge(ps, lp, alpha, ts, vals)
            if isinstance(judged, str):
                verdicts.append((theorem, subject, "SKIP", judged))
                continue
            columns, constant, ok, detail = judged
            path = out / f"{theorem}_{alpha}_{slug}.dat"
            write_columns(path, *columns)
            manifest.add_file(path)
            if constant is not None:
                name, value = constant
                manifest.add_constant(f"{theorem}_{name}_alpha{alpha}_{slug}", value)
            verdicts.append((theorem, subject, "PASS" if ok else "FAIL", detail))
    path = out / f"verdicts_{theorem}.csv"
    write_csv(path, "theorem,subject,status,detail", verdicts)
    manifest.add_file(path)
    for _, subject, status, detail in verdicts:
        print(f"[{status}] {theorem} {subject}: {detail}")
    return 3 if any(v[2] == "FAIL" for v in verdicts) else 0


def cmd_report(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    verdict_files = sorted(out.glob("verdicts_*.csv"))
    rows = []
    for path in verdict_files:
        with path.open(newline="") as fh:
            rows.extend(row for row in list(csv.reader(fh))[1:] if row)
    missing = [tid for tid in THEOREM_IDS
               if not (out / f"verdicts_{tid}.csv").exists()]
    manifest_path = out / "manifest.txt"
    integrity = []
    if manifest_path.exists():
        for line in manifest_path.read_text().splitlines():
            if not line.startswith("file "):
                continue
            name, digest = line[5:].rsplit(" sha256=", 1)
            target = out / name
            if not target.exists():
                integrity.append(f"missing {name}")
            elif hashlib.sha256(target.read_bytes()).hexdigest() != digest:
                integrity.append(f"checksum mismatch {name}")
    summary = ["theorem subject status detail"]
    summary += [" ".join(r) for r in rows]
    summary += [f"MISSING {tid}" for tid in missing]
    summary += [f"INTEGRITY {msg}" for msg in integrity]
    text = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(text)
    write_csv(out / "summary.csv", "theorem,subject,status,detail",
              [tuple(r) for r in rows] +
              [(tid, "", "MISSING", "") for tid in missing])
    manifest.add_file(out / "summary.txt")
    manifest.add_file(out / "summary.csv")
    print(text, end="")
    if integrity:
        print("integrity error: " + "; ".join(integrity))
        return 2
    return 3 if any(r[2:3] == ["FAIL"] for r in rows) else 0


# ---------------------------------------------------------------------------

# name -> (command, {positional argument: choices})
COMMANDS = {
    "classify": (cmd_classify, {}),
    "harmonic": (cmd_harmonic, {}),
    "evolve": (cmd_evolve, {}),
    "norm-scan": (cmd_norm_scan, {}),
    "verify": (cmd_verify, {"theorem": THEOREM_IDS}),
    "report": (cmd_report, {}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lorentzheat", description=__doc__)
    parser.add_argument("--config", type=Path, required=False,
                        help="path to the key = value config file")
    parser.add_argument("--out", type=Path, default=Path("runs/out"))
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed (recorded only)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals) in COMMANDS.items():
        command_parser = sub.add_parser(name)
        for arg, choices in positionals.items():
            command_parser.add_argument(arg, choices=choices)
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else ""
        cfg = parse_config(text)
    except (OSError, ConfigError, LambdaMembershipError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg["seed"] if args.seed is None else args.seed
    manifest = Manifest(out, cfg.sha256(), seed)

    command, positionals = COMMANDS[args.command]
    try:
        code = command(cfg, out, manifest, *(getattr(args, a) for a in positionals))
    except (spectral.SpectralError, LambdaMembershipError, ConfigError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (harmonic.HarmonicSolveError, rates.RateFitError,
            np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    manifest.write()
    return code


if __name__ == "__main__":
    sys.exit(main())
