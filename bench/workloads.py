"""The benchmark's workloads: configs made from the seed, and output checks.

Each workload is one lorentzheat subcommand on one config.  The seed only
moves where the time window starts, by a factor 2^(u * octaves) with u in
[0, 1) drawn from the seed (seed 0 gives u = 0, the nominal window).  Every
check below is a property that holds for any window, and every reference is
computed by `reference`, apart from the program.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

INF = math.inf
N = 3
# ref_err when the outputs needed to measure it are missing or malformed: a
# relative distance of 1, so the JSON result stays finite (the run is
# reported incorrect anyway)
UNMEASURED = 1.0
HARDY_LAMBDA = 2.0


def window_factor(seed: int, octaves: float, cell_ratio: float | None = None
                  ) -> float:
    """2^(u * octaves), u in [0, 1) from the seed (u = 0 for seed 0).

    With cell_ratio, the factor is rounded down to cell_ratio^(2k): sqrt(t)
    then moves by k whole cells of the geometric grid, so a discontinuity
    placed at sqrt(t) keeps its position between two nodes.
    """
    u = 0.0 if seed == 0 else random.Random(seed).random()
    f = 2.0 ** (u * octaves)
    if cell_ratio is not None:
        f = cell_ratio ** (2 * math.floor(math.log(f) / (2.0 * math.log(cell_ratio))))
    return f


def time_points(t_min: float, t_max: float, per_decade: int) -> np.ndarray:
    """The target times the CLI documents: per_decade points per decade,
    both ends included."""
    decades = math.log10(t_max / t_min)
    n = max(2, int(round(decades * per_decade)) + 1)
    return t_min * (t_max / t_min) ** (np.arange(n) / (n - 1))


@dataclass
class Inputs:
    config: str
    command: list
    times: np.ndarray
    window: tuple


def manifest_problems(out: Path) -> list:
    """The manifest must list every file the command wrote, each with its
    SHA-256, and nothing else."""
    path = out / "manifest.txt"
    if not path.is_file():
        return ["no manifest.txt"]
    listed = {}
    for line in path.read_text().splitlines():
        if line.startswith("file "):
            name, _, digest = line[5:].rpartition(" sha256=")
            listed[name] = digest
    written = {p.name for p in out.iterdir() if p.name != "manifest.txt"}
    problems = [f"{n} written but not in the manifest" for n in written - set(listed)]
    problems += [f"{n} in the manifest but not written" for n in set(listed) - written]
    for name in written & set(listed):
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != listed[name]:
            problems.append(f"{name} checksum differs from the manifest")
    return problems


def _relative_spread(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.max(values) / np.min(values) - 1.0)


def _check_times(found, expected, what, rtol=1e-9) -> list:
    found = np.asarray(found, dtype=float)
    if found.shape != expected.shape or \
            np.max(np.abs(found / expected - 1.0)) > rtol:
        return [f"{what}: times {found.tolist()} differ from {expected.tolist()}"]
    return []


# ---------------------------------------------------------------------------
# scan_hardy: norm-scan under V = 2/r^2
# ---------------------------------------------------------------------------

SCAN_TUPLES = {"p1qinfs1tinf": (1.0, INF), "p1q2s1t2": (1.0, 2.0)}
SCAN_ALPHAS = (0, 1, 2)
# value * t^{(N/2)(1/p-1/q) + alpha/2} must not drift with t; the empirical
# column is a discrete maximum over a test family, the envelopes are exact
SCAN_EMPIRICAL_DRIFT = 0.02
SCAN_ENVELOPE_DRIFT = 1e-8
LOWER_BOUND_SLACK = 1e-9  # relative accuracy of the exact-norm maximization


def scan_hardy_inputs(seed: int) -> Inputs:
    f = window_factor(seed, 1.0)
    t_min, t_max = 0.1 * f, 1.0 * f
    config = f"""\
dimension = {N}
potential.kind = hardy
potential.lambda = {HARDY_LAMBDA}
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = 1024
modes.k_max = 2
modes.scan = 0
time.t_min = {t_min!r}
time.t_max = {t_max!r}
time.points_per_decade = 1
lorentz = 1,inf,1,inf; 1,2,1,2
alphas = 0,1,2
seed = {seed}
"""
    return Inputs(config, ["norm-scan"], time_points(t_min, t_max, 1), (t_min, t_max))


def scan_hardy_check(out: Path, inp: Inputs, exact: dict):
    problems = []
    ref_err = 0.0
    columns = ("empirical_lower", "upper_env", "lower_env", "phi_alpha")
    for slug, (p, q) in SCAN_TUPLES.items():
        for alpha in SCAN_ALPHAS:
            path = out / f"norm_scan_k0_alpha{alpha}_{slug}.csv"
            if not path.is_file():
                problems.append(f"missing {path.name}")
                continue
            with path.open(newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames != ["t", *columns, "case_tag"]:
                    problems.append(f"{path.name}: header {reader.fieldnames}")
                    continue
                rows = list(reader)
            ts = np.array([float(r["t"]) for r in rows])
            bad_times = _check_times(ts, inp.times, path.name)
            if bad_times:
                problems += bad_times
                continue
            scale = ts ** ((N / 2.0) * (1.0 / p - 1.0 / q) + alpha / 2.0)
            # an infinite upper envelope means the norm itself is infinite,
            # and the empirical column then only measures the grid
            bounded = all(float(r["upper_env"]) != INF for r in rows)
            for col in columns:
                vals = np.array([float(r[col]) for r in rows])
                if not (np.all(np.isfinite(vals)) and bounded):
                    continue
                drift = _relative_spread(vals * scale)
                limit = SCAN_EMPIRICAL_DRIFT if col == "empirical_lower" \
                    else SCAN_ENVELOPE_DRIFT
                if drift > limit:
                    problems.append(f"{path.name}: {col} * t^rate drifts by "
                                    f"{drift:.3g} > {limit:g}")
            if alpha == 0:
                emp = np.array([float(r["empirical_lower"]) for r in rows])
                ratio = emp / np.array([exact[(q, t)] for t in inp.times])
                if np.any(ratio > 1.0 + LOWER_BOUND_SLACK) or np.any(ratio <= 0.0):
                    problems.append(f"{path.name}: empirical/exact {ratio.tolist()} "
                                    "is not a lower bound")
                ref_err = max(ref_err, float(np.max(1.0 - ratio)))
            if alpha == 2 and q == INF:
                for col in ("upper_env", "phi_alpha"):
                    if any(float(r[col]) != INF for r in rows):
                        problems.append(f"{path.name}: {col} must be inf, since "
                                        "grad^2 h_0 ~ 1/r is unbounded")
    return ref_err, problems


def scan_hardy_reference(inp: Inputs) -> dict:
    return {(q, t): reference.hardy_mode0_norm(1.0, q, t, N, HARDY_LAMBDA)
            for _, q in SCAN_TUPLES.values() for t in inp.times}


# ---------------------------------------------------------------------------
# verify_bounded: verify T4.2 under V = r^-4
# ---------------------------------------------------------------------------

VERIFY_P = 2.0
VERIFY_ALPHA = 1
VERIFY_RATE = -N / (2.0 * VERIFY_P)                                # Theorem 7.3
VERIFY_FREE = -(N / 2.0) * (1.0 / VERIFY_P) - VERIFY_ALPHA / 2.0   # free rate, q = inf
VERIFY_RATE_TOL = 0.07
VERIFY_FREE_MARGIN = 0.25
VERIFY_POINTS = 1024
VERIFY_CELL = (1e4 / 1e-8) ** (1.0 / (VERIFY_POINTS - 1))


def verify_bounded_inputs(seed: int) -> Inputs:
    # the fitted slope still approaches its limit over this window (-0.722 at
    # 30..3000, -0.732 an octave later), so the window moves by at most an
    # eighth of an octave, and by whole grid cells: ref_err = |slope + 0.75|
    # moved between 0.025 and 0.032 with the window's place between two
    # nodes, but only by 3% a whole cell.  That leaves the nominal window
    # and the one a cell later (t times 1.0555).  1024 nodes keep a launch
    # near 7 s, so that a run holds several of them (4096 nodes: 20 s,
    # slope -0.7216 against -0.7182 here)
    f = window_factor(seed, 1.0 / 8.0, cell_ratio=VERIFY_CELL)
    t_min, t_max = 30.0 * f, 3000.0 * f
    config = f"""\
dimension = {N}
potential.kind = inverse_power
potential.amplitude = 1.0
potential.kappa = 4.0
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = {VERIFY_POINTS}
modes.k_max = 6
time.t_min = {t_min!r}
time.t_max = {t_max!r}
time.points_per_decade = 4
lorentz = 2,inf,2,inf
alphas = {VERIFY_ALPHA}
seed = {seed}
"""
    return Inputs(config, ["verify", "T4.2"], time_points(t_min, t_max, 4),
                  (t_min, t_max))


def verify_bounded_check(out: Path, inp: Inputs, _ref=None):
    path = out / f"T4.2_{VERIFY_ALPHA}_p2qinfs2tinf.dat"
    if not path.is_file():
        return UNMEASURED, [f"missing {path.name}"]
    data = np.loadtxt(path, ndmin=2)
    problems = _check_times(data[:, 0], inp.times, path.name)
    if problems:
        return UNMEASURED, problems
    vals = data[:, 1]
    if not (np.all(vals > 0.0) and np.all(np.diff(vals) < 0.0)):
        return UNMEASURED, [f"{path.name}: series is not positive and decreasing"]
    slope = reference.loglog_slope(data[:, 0], vals)
    if abs(slope - VERIFY_RATE) > VERIFY_RATE_TOL:
        problems.append(f"slope {slope:.4f} not within {VERIFY_RATE_TOL} of "
                        f"{VERIFY_RATE}")
    if slope < VERIFY_FREE + VERIFY_FREE_MARGIN:
        problems.append(f"slope {slope:.4f} not {VERIFY_FREE_MARGIN} above the "
                        f"free rate {VERIFY_FREE}")
    return abs(slope - VERIFY_RATE), problems


# ---------------------------------------------------------------------------
# evolve_flow: evolve the h_1 bump under V = 2/r^2
# ---------------------------------------------------------------------------

EVOLVE_A1 = (math.sqrt(17.0) - 1.0) / 2.0   # A(A+1) = lambda + omega_1 = 4
EVOLVE_DIM = N + 2.0 * EVOLVE_A1            # w = v/h_1 flows in this dimension
EVOLVE_TOL = 3e-3                           # error relative to the peak at each t


EVOLVE_POINTS = 16384
# the datum is cut at sqrt(t_min), so the window moves by whole grid cells:
# at other placements of the cut between two nodes the error against the
# exact flow differs (1.0e-3 to 4.1e-3 seen), which no change of the program
# would have caused
EVOLVE_CELL = (1e4 / 1e-8) ** (1.0 / (EVOLVE_POINTS - 1))


def evolve_flow_inputs(seed: int) -> Inputs:
    f = window_factor(seed, 1.0, cell_ratio=EVOLVE_CELL)
    t_min, t_max = 0.1 * f, 1000.0 * f
    config = f"""\
dimension = {N}
potential.kind = hardy
potential.lambda = {HARDY_LAMBDA}
grid.r_min = 1e-8
grid.r_max = 1e4
grid.points = {EVOLVE_POINTS}
modes.k_max = 1
time.t_min = {t_min!r}
time.t_max = {t_max!r}
time.points_per_decade = 4
scheme.dt_cap = 256
evolve.data = hk_bump
evolve.k = 1
evolve.scale = 1.0
seed = {seed}
"""
    return Inputs(config, ["evolve"], time_points(t_min, t_max, 4), (t_min, t_max))


def evolve_flow_check(out: Path, inp: Inputs, _ref=None):
    files = sorted(out.glob("evolve_k1_t*.dat"),
                   key=lambda p: float(p.stem.split("_t", 1)[1]))
    ts = np.array([float(p.stem.split("_t", 1)[1]) for p in files])
    # file names carry t to 6 significant digits
    problems = _check_times(ts, inp.times, "evolve files", rtol=1e-5)
    if problems:
        return UNMEASURED, problems
    radius = math.sqrt(inp.window[0])   # the bump is h_1 on B(0, sqrt t_min)
    worst = 0.0
    for path, t in zip(files, inp.times):
        r, v = np.loadtxt(path, unpack=True)
        exact = r ** EVOLVE_A1 * reference.ball_flow_ratio(r, t, radius, EVOLVE_DIM)
        err = float(np.max(np.abs(v - exact)) / np.max(exact))
        worst = max(worst, err)
    if worst > EVOLVE_TOL:
        problems.append(f"flow differs from the exact ball flow by {worst:.3g} "
                        f"of the peak > {EVOLVE_TOL:g}")
    return worst, problems


WORKLOADS = {
    "scan_hardy": (scan_hardy_inputs, scan_hardy_reference, scan_hardy_check),
    "verify_bounded": (verify_bounded_inputs, None, verify_bounded_check),
    "evolve_flow": (evolve_flow_inputs, None, evolve_flow_check),
}
