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
import io
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, harmonic, iterated, rates, semigroup, spectral
from .params import INF, LambdaMembershipError, LorentzParams
from .quadrature import make_grid


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
    return out


def _parse_int_list(text):
    return [int(p) for p in text.replace(";", ",").split(",") if p.strip()]


def _finite_float(text):
    # nan passes every range check below and inf reaches the solvers; both
    # are invalid input (exit 1)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# key -> (parser, default as text); parsed lazily so error messages name keys
DEFAULTS = {
    "dimension": (int, "3"),
    "potential.kind": (str, "hardy"),
    "potential.lambda": (_finite_float, "2.0"),
    "potential.amplitude": (_finite_float, "1.0"),
    "potential.kappa": (_finite_float, "4.0"),
    "grid.r_min": (_finite_float, "1e-8"),
    "grid.r_max": (_finite_float, "1e4"),
    "grid.points": (int, "4096"),
    "modes.k_max": (int, "6"),
    "modes.scan": (_parse_int_list, "0"),
    "time.t_min": (_finite_float, "0.1"),
    "time.t_max": (_finite_float, "100.0"),
    "time.points_per_decade": (int, "4"),
    "lorentz": (_parse_lorentz_list, "1,inf,1,inf"),
    "alphas": (_parse_int_list, "0,1"),
    "family.j_max": (int, "6"),
    "scheme.dt_cap": (_finite_float, "64"),
    "delta": (_finite_float, "0.25"),
    "seed": (int, "0"),
    "evolve.data": (str, "gaussian"),
    "evolve.k": (int, "0"),
    "evolve.scale": (_finite_float, "1.0"),
}


@dataclass
class RunConfig:
    values: dict

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
    return RunConfig(values)


def _validate_config(v):
    if v["grid.r_min"] <= 0 or v["grid.r_max"] <= v["grid.r_min"]:
        raise ConfigError("grid range must satisfy 0 < r_min < r_max")
    if v["time.t_min"] <= 0 or v["time.t_max"] <= v["time.t_min"]:
        raise ConfigError("time range must satisfy 0 < t_min < t_max")
    if v["grid.points"] < 64:
        raise ConfigError("grid.points too small")
    if v["potential.kind"] not in ("hardy", "zero", "inverse_power"):
        raise ConfigError(f"unknown potential.kind {v['potential.kind']!r}")
    if v["evolve.data"] not in ("gaussian", "ball", "annulus", "hk_bump"):
        raise ConfigError(f"unknown evolve.data {v['evolve.data']!r}")
    if any(a < 0 for a in v["alphas"]):
        raise ConfigError("alphas must be nonnegative")
    # these ran with exit 0 but read wrong: points_per_decade < 1 gives 2
    # time points, j_max < 0 a family of the bump alone, a delta that is
    # not positive an empty lower_env cell at every t, and such an
    # evolve.scale an all-zero evolve datum
    if v["time.points_per_decade"] < 1:
        raise ConfigError("time.points_per_decade must be >= 1")
    if v["family.j_max"] < 0:
        raise ConfigError("family.j_max must be nonnegative")
    if v["delta"] <= 0.0:
        raise ConfigError("delta must be positive")
    if v["evolve.scale"] <= 0.0:
        raise ConfigError("evolve.scale must be positive")
    # so did an empty list, which wrote no results, and a repeated entry,
    # which wrote each of its outputs twice
    for key in ("alphas", "modes.scan", "lorentz"):
        if not v[key]:
            raise ConfigError(f"{key} is empty")
        repeated = [e for i, e in enumerate(v[key]) if e in v[key][:i]]
        if repeated:
            entry = repeated[0].label() if key == "lorentz" else repeated[0]
            raise ConfigError(f"{key} repeats {entry}")
    try:
        semigroup.check_dt_cap(v["scheme.dt_cap"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, ks in (("modes.scan", v["modes.scan"]), ("evolve.k", [v["evolve.k"]])):
        bad = [k for k in ks if not 0 <= k <= v["modes.k_max"]]
        if bad:
            raise ConfigError(
                f"{key} holds {bad[0]}, outside 0..modes.k_max = {v['modes.k_max']}")
    if max(v["alphas"]) > v["modes.k_max"]:
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

    def add_warning(self, *messages):
        for message in messages:
            if message not in self.warnings:
                self.warnings.append(message)

    def add_file(self, path: Path, data: bytes | bytearray):
        """Record the sha256 of `data`, the bytes just written to path."""
        self.files.append((path.name, hashlib.sha256(data).hexdigest()))

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


def _write(path: Path, data: bytes | bytearray) -> bytes | bytearray:
    """Write data to path and return it, for Manifest.add_file to hash."""
    path.write_bytes(data)
    return data


def write_csv(path: Path, header: str, rows) -> bytes:
    """Header line, then one row per line; fields holding commas are quoted.
    Returns the bytes written."""
    fh = io.StringIO()
    fh.write(header + "\n")
    csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerows(
        [c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)
    return _write(path, fh.getvalue().encode())


def write_columns(path: Path, *columns) -> bytearray:
    """Write column_bytes(*columns) to path and return the bytes, for
    Manifest.add_file to hash."""
    return _write(path, column_bytes(*columns))


# A column file is built as an n x 5c matrix of uint32 words, 20 bytes per
# value: [sign, d, '.', d] [dddd] [dddd] [d, 'e', sign, hundreds]
# [tens, units, separator, 0].  A 0 byte stands for no character: the sign
# of a value that is not negative, the hundreds digit of an exponent below
# 100, the tail of a fallback text.  One pass drops them all.
#
# The digits are those of '%.10e' by construction.  With e = floor(log10|x|)
# and s = |x| 10^(10 - e), 10^(10 - e) from the table _POW10, which is within
# an ulp or two of the power, s is off by under 1e-4.  So where s >= 1e10,
# rint(s) < 1e11 and |s - rint(s)| < 0.499, rint(s) is the 11-digit rounding
# of |x| at exponent e, whatever log10 returned: a log10 off by one either
# fails the range test or (just below a power of ten) rounds to that power,
# as '%.10e' does.  Every other value (not finite, e outside [-298, 308],
# where 10^(10 - e) would not be finite, or within 0.001 of a tie) is
# formatted by '%.10e' itself; zeros are written directly.

_WORDS = 5
_POW10 = np.array([10.0 ** k for k in range(-298, 309)])


def _words(texts) -> np.ndarray:
    """One uint32 word per 4-byte text."""
    return np.frombuffer(b"".join(texts), np.uint32)


def _quads() -> np.ndarray:
    """The words "0000".."9999", put together from the pairs "00".."99"."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[..., 0] = pairs[:, None]
    quads[..., 1] = pairs
    return quads.view(np.uint32).ravel()


def _exponent_text(e: int) -> bytes:
    text = b"%+04d" % e
    return text if abs(e) >= 100 else text[:1] + b"\0" + text[2:]


# Built from bytes rather than by numpy arithmetic, which would page in
# loops that nothing else runs and cost memory at every launch.
_QUADS = _quads()
# [sign, lead digit, '.', first decimal] at 100 sign + 10 lead + decimal
_HEADS = _words(sign + b"%d.%d" % divmod(i, 10) for sign in (b"\0", b"-")
                for i in range(100))
# [last decimal, 0, 0, 0]; [0, 'e', sign, hundreds] and [tens, units, ' ', 0]
# at e + 298
_LAST = _words(b"%d\0\0\0" % d for d in range(10))
_EXP_HEADS = _words(b"\0e" + _exponent_text(e)[:2] for e in range(-298, 309))
_EXP_TAILS = _words(_exponent_text(e)[2:] + b" \0" for e in range(-298, 309))
# turns a field's ' ' into '\n'
_NEWLINE = _words([b"\0\0 \0"])[0] ^ _words([b"\0\0\n\0"])[0]


def _format_into(words: np.ndarray, values) -> int:
    """The '%.10e' text of each value and a ' ' into the rows of `words`
    (an n x 5 uint32 view); returns how many values '%.10e' formatted."""
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    # in place where it can be: the temporaries are the writer's memory
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(a)
        np.floor(e, out=e)
        fast = (e >= -298) & (e <= 308)
        e[~fast] = 0.0
        e = e.astype(np.intp)
        s = _POW10[308 - e]
        s *= a
        d = np.rint(s)
        fast &= (s >= 1e10) & (d < 1e11)
        s -= d
        fast &= np.abs(s, out=s) < 0.499
    fast |= a == 0.0
    del a, s
    d[~fast] = 0.0
    # d = [lead, 1st decimal | 2nd-5th | 6th-9th | 10th], exact in floats:
    # each quotient is at least 1e-5 from the next integer, far above its
    # rounding error
    mid = d / 1e5
    np.floor(mid, out=mid)
    d -= mid * 1e5
    top = mid / 1e4
    np.floor(top, out=top)
    mid -= top * 1e4
    tail = d / 10.0
    np.floor(tail, out=tail)
    d -= tail * 10.0
    top += 100.0 * np.signbit(x)
    words[:, 0] = _HEADS[top.astype(np.intp)]
    words[:, 1] = _QUADS[mid.astype(np.intp)]
    words[:, 2] = _QUADS[tail.astype(np.intp)]
    e += 298
    words[:, 3] = _LAST[d.astype(np.intp)] | _EXP_HEADS[e]
    words[:, 4] = _EXP_TAILS[e]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.10e" % v).ljust(18, b"\0") + b" \0"
                        for v in x[slow].tolist())
        words[slow] = np.frombuffer(text, np.uint32).reshape(-1, _WORDS)
    return slow.size


def column_text(values) -> np.ndarray:
    """A column formatted once, for column_bytes to place in many files."""
    words = np.empty((np.size(values), _WORDS), np.uint32)
    _format_into(words, values)
    return words


def column_bytes(*columns) -> bytearray:
    """The float columns as '%.10e' text, one space between the columns of a
    row and a newline after each; '%.10e' renders inf, -inf and nan as _fmt
    does.  A column is a 1-d array of values or a column_text result."""
    n = len(columns[0])
    if n == 0:
        return bytearray(b"\n")
    # numpy writes into the bytearray that translate compacts: no copy
    text = bytearray(4 * _WORDS * len(columns) * n)
    rows = np.frombuffer(text, np.uint32).reshape(n, _WORDS * len(columns))
    for j, column in enumerate(columns):
        block = rows[:, _WORDS * j:_WORDS * (j + 1)]
        if np.ndim(column) == 2:
            block[...] = column
        else:
            _format_into(block, column)
    rows[:, -1] ^= _NEWLINE
    return text.translate(None, b"\0")


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
    manifest.add_file(path, _write(path, text.encode()))
    if not ok:
        manifest.add_warning("nonnegativity evidence failed")
    return 0


def cmd_harmonic(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    ps = build_profiles(cfg)
    grid = column_text(ps.grid)
    for k, hp in sorted(ps.hks.items()):
        path = out / f"harmonic_k{k}.dat"
        manifest.add_file(path, write_columns(path, grid, hp.values))
        if hp.c is not None:
            manifest.add_constant(f"c_{k}", hp.c)
            manifest.add_constant(f"c_{k}_residual", hp.fit_residual)
        manifest.add_constant(f"A1_{k}", hp.inner_exponent)
        manifest.add_constant(f"A2_{k}_fitted", hp.fitted_outer_exponent)
    print(f"solved modes k<=({cfg['modes.k_max']}) for {ps.spec.label}; "
          f"criticality {ps.criticality}")
    return 0


def _initial_datum(cfg: RunConfig, ps: harmonic.ProfileSet, t_ref: float):
    hk = ps.h(cfg["evolve.k"])
    radius = cfg["evolve.scale"] * math.sqrt(t_ref)
    return hk, semigroup.start_values(hk, cfg["evolve.data"], radius)


def cmd_evolve(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    ps = build_profiles(cfg)
    ts = time_grid(cfg)
    hk, phi = _initial_datum(cfg, ps, ts[0])
    if not phi.any():
        raise ConfigError(
            f"the {cfg['evolve.data']} datum of evolve.scale = {cfg['evolve.scale']:g} "
            f"is zero at every grid node (grid.r_min = {cfg['grid.r_min']:g})")
    with np.errstate(over="ignore"):  # evolve_modes rejects the overflow
        w0 = phi / hk.values
    ws, warnings = semigroup.evolve_modes(hk, w0, list(ts), cfg["scheme.dt_cap"])
    grid = column_text(hk.grid)
    for t, w in zip(ts, ws):
        path = out / f"evolve_k{hk.k}_t{t:.6g}.dat"
        manifest.add_file(path, write_columns(path, grid, hk.values * w[:, 0]))
    manifest.add_warning(*warnings)
    print(f"evolved {cfg['evolve.data']} datum on mode k={hk.k} "
          f"to {len(ws)} times")
    return 0


def _empirical_table(cfg, ps, k, alphas, lps, ts, manifest):
    """{(alpha, lp_idx): array of bounds over ts} via the batched sweep; the
    flows' warnings go to the manifest."""
    # the family at t_min would hold the bump alone, or nothing: no bound
    cut = semigroup.FAMILY_CUT * ps.grid[0]
    if math.sqrt(ts[0]) <= cut:
        raise ConfigError(
            f"sqrt(time.t_min) = {math.sqrt(ts[0]):g} must exceed "
            f"{semigroup.FAMILY_CUT:g} grid.r_min = {cut:g}: the test family "
            "at t_min holds no ball")
    table, warnings = semigroup.operator_norm_sweep(
        ps.h(k), alphas, lps, list(ts), dt_cap=cfg["scheme.dt_cap"],
        j_max=cfg["family.j_max"])
    manifest.add_warning(*warnings)
    return table


def cmd_norm_scan(cfg: RunConfig, out: Path, manifest: Manifest) -> int:
    ps = build_profiles(cfg)
    ts = time_grid(cfg)
    lps = cfg["lorentz"]
    alphas = cfg["alphas"]
    for k in cfg["modes.scan"]:
        table = _empirical_table(cfg, ps, k, alphas, lps, ts, manifest)
        for i, lp in enumerate(lps):
            for alpha in alphas:
                try:
                    tag = rates.classify_cases(ps.table, alpha).render()
                except rates.AmbiguousCaseError:
                    tag = "ambiguous"
                rows = []
                for t, value in zip(ts, table[(alpha, i)]):
                    # per-row prediction failures are recorded, not fatal
                    try:
                        upper = rates.upper_envelope_J(ps, lp, alpha, t)
                        lower = rates.lower_envelope(ps, lp, alpha, t,
                                                     delta=cfg["delta"])
                        phi = rates.phi_alpha(ps, lp, alpha, t) \
                            if alpha <= 2 else None
                    except (ArithmeticError, ValueError) as exc:
                        manifest.add_warning(
                            f"envelope failure k={k} alpha={alpha} "
                            f"t={t:g}: {exc}")
                        upper = lower = phi = None
                    rows.append((t, value, upper, lower, phi, tag))
                path = out / f"norm_scan_k{k}_alpha{alpha}_{_tuple_slug(lp)}.csv"
                manifest.add_file(path, write_csv(
                    path, "t,empirical_lower,upper_env,lower_env,phi_alpha,case_tag",
                    rows))
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


def _fit_rate(ts, vals, model="auto"):
    """rates.fit_rate; a time grid that no series can be fitted on is
    invalid input, not a numerical failure."""
    try:
        rates.check_window(ts)
    except rates.RateFitError as exc:
        raise ConfigError("time.t_min, time.t_max and time.points_per_decade "
                          f"give no time grid a rate fits on: {exc}") from exc
    return rates.fit_rate(ts, vals, model)


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
    if np.isinf(vals).any():
        return "empirical lower bound infinite (unbounded)"
    free = rates.free_exponent(lp, alpha, ps.spec.dimension)
    fit = _fit_rate(ts, vals)
    return ((ts, vals), None, fit.exponent >= free - EXP_TOL,
            f"fitted {fit.exponent:+.4f} >= free {free:+.4f} - {EXP_TOL}")


def _judge_family_rates(theorem, ps, lp, alpha, ts, vals):
    pred = rates.closed_form_rate(ps, lp, alpha)
    if pred.theorem != theorem:
        return f"potential routes to {pred.theorem}"
    if not pred.applicable:
        why = "; ".join(f"{c}" for c, ok, _ in pred.hypotheses if not ok)
        return f"hypothesis failed: {why}"
    # fit the model the prediction names: a free log factor can trade
    # exponent for log power where the theorem rules the log out
    fit = _fit_rate(ts, vals, "power-log" if pred.log_power else "pure-power")
    ok = abs(fit.exponent - pred.exponent) <= EXP_TOL and \
        abs(fit.log_power - (pred.log_power or 0.0)) <= LOG_TOL
    return ((ts, vals), ("fit_b", fit.exponent), ok,
            f"fitted {fit.exponent:+.4f} (log {fit.log_power:+.2f}) "
            f"vs predicted {pred.exponent:+.4f} (log {pred.log_power:+.2f})")


# theorem -> (judge, largest derivative order it covers): phi_alpha stops at
# 2, and upper_envelope_J at the derivative orders of the iterated kernels
RECIPES = {
    "T1.1": (_judge_two_sided, 2),
    "T3.1": (_judge_upper, iterated.DERIVATIVE_ORDER_MAX),
    "T4.2": (_judge_floor, INF),
    **{tid: (partial(_judge_family_rates, tid), INF)
       for tid in ("T7.1", "T7.2", "T7.3", "T7.4")},
}
THEOREM_IDS = tuple(RECIPES)


def cmd_verify(cfg: RunConfig, out: Path, manifest: Manifest, theorem: str) -> int:
    judge, alpha_max = RECIPES[theorem]
    alphas = [a for a in cfg["alphas"] if a <= alpha_max]
    if not alphas:
        # a verify that judged nothing must not read as a pass
        raise ConfigError(f"{theorem} covers derivative orders up to {alpha_max}: "
                          f"alphas = {cfg['alphas']} leaves none to judge")
    ps = build_profiles(cfg)
    ts = time_grid(cfg)
    lps = cfg["lorentz"]
    table = _empirical_table(cfg, ps, 0, alphas, lps, ts, manifest)
    verdicts = []
    for i, lp in enumerate(lps):
        slug = _tuple_slug(lp)
        for alpha in alphas:
            subject = f"alpha={alpha} {lp.label()}"
            judged = judge(ps, lp, alpha, ts, table[(alpha, i)])
            if isinstance(judged, str):
                verdicts.append((theorem, subject, "SKIP", judged))
                continue
            columns, constant, ok, detail = judged
            path = out / f"{theorem}_{alpha}_{slug}.dat"
            manifest.add_file(path, write_columns(path, *columns))
            if constant is not None:
                name, value = constant
                manifest.add_constant(f"{theorem}_{name}_alpha{alpha}_{slug}", value)
            verdicts.append((theorem, subject, "PASS" if ok else "FAIL", detail))
    path = out / f"verdicts_{theorem}.csv"
    manifest.add_file(path, write_csv(path, "theorem,subject,status,detail", verdicts))
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
    manifest.add_file(out / "summary.txt", _write(out / "summary.txt", text.encode()))
    manifest.add_file(out / "summary.csv", write_csv(
        out / "summary.csv", "theorem,subject,status,detail",
        [tuple(r) for r in rows] + [(tid, "", "MISSING", "") for tid in missing]))
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
    manifest = Manifest(out, cfg.sha256(), cfg["seed"])

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
