"""Check that the working tree's CLI writes the same bytes as another revision.

    python tools/same_bytes.py <rev>

Unpacks `git archive <rev>` into a temporary directory, then runs the fixed
list of runs in RUNS once with that tree's `src/` and once with the working
tree's.  A run is one or more CLI invocations, made in order in one working
directory with one output directory.  For every run it compares the exit
code, stdout and stderr of each invocation and every file in the output
directory after the last one; `manifest.txt` is compared without its
`wall_clock_seconds` line.  Every difference is
listed, and the script exits 1 if there is any, else 0 (2 on a usage
error or a revision that git cannot archive).  A differing file whose two
versions are tables of the same shape, where every cell that differs is a
number on both sides (`.dat` files, and CSVs whose text cells agree), gets
its size on its line: the largest move of a cell relative to the peak
finite |value| of its column, inf for a move to or from inf.

The runs are the three benchmark workloads (their configs imported from
`bench/workloads.py`) at seeds 0 and 5; `classify` and `verify` for every
theorem on a Hardy, a zero and an inverse-power config at 768 nodes;
`classify` on an inverse-power config that is negative near the origin
(a = -0.05, kappa = 3), the only run whose nonnegativity evidence is the
Dirichlet eigenvalue;
`harmonic` on that inverse-power config with `modes.k_max = 6`, which
writes all seven RK45 profiles, and `harmonic` on `verify_bounded`'s config
(the same potential, `modes.k_max = 6`), the seven RK45 profiles on its
1e-8..1e4 grid of 1024 nodes, where the workload itself solves only h_0;
`evolve` of ball, annulus and gaussian data on the small Hardy and
inverse-power configs, whose column files hold exact zeros and 3-digit
exponents (the column writer's zero and fallback paths); one `norm-scan`
on off-diagonal Lorentz tuples, which takes the weak-norm and layer-cake
paths; and two more on `scan_hardy`'s config at the edges of the sweep's
flowed basis: one with `family.j_max = 0` (ball_j0, annulus_j0 and the
bump, no annulus taken as a difference) and one whose `grid.r_min` ends
the family before `j_max`; one on that config with Hardy lambda = -0.24,
whose h_0 = r^-0.4 is singular at the origin, on tuples into L^inf, L^2
and L^4, which takes the inf and inner-extension branches of the
sigma = p and sup norms; and the runs that reach derivative order
alpha >= 3, which no other run does: `verify T3.1` with
`modes.k_max = 4` and alphas 0..4 on the small zero and inverse-power
configs, and a `norm-scan` on `scan_hardy`'s config with
`modes.k_max = 3` and alphas 0..3.  They take derivative_h above order 2
(the mode potential's derivatives), iterate_I with n = 2, and the finite
differences of derivative_iterated and radial_derivative at orders 3 and
4.  On the inverse-power config the alpha = 4 rows FAIL (exit 3): the
empirical lower bound is inf at t = 60.3 and 109.9 into L^inf, and at
t = 109.9 into L^2.  Last, the only runs whose manifests hold warning
lines: `norm-scan`, `evolve` and `verify T4.2` on the small Hardy config
with `time.t_max = 2500` (sqrt t_max = r_max / 20), whose flows reach the
absorbing boundary and warn of its contamination at t = 1416.91 and 2500.
Then `norm-scan` and `verify T4.2` on the small config at the critical
Hardy coupling lambda = -0.25, where h_0 = r^-0.5 and every empirical
bound into L^inf is inf.  Last, one chained run on the small Hardy config:
`verify T4.2`, then `verify T7.1`, then `report` in the same output
directory.  It is the only run that reaches `report`, and the only one
whose `Manifest.write` merges the lines of an earlier manifest.  Then four
runs on input that no result can be read from, each of which must exit 1
with `invalid input`: `norm-scan` and `verify T4.2` where sqrt t_min is at
most 4 grid.r_min, so that the test family at t_min holds no ball (here it
is empty at every time); `evolve` of a ball whose radius lies below
grid.r_min, a datum that is zero at every node; and `verify T4.2` on a time
grid of 5 points, too few for any rate fit.  Last, `norm-scan` and
`verify T7.2` on the zero potential at 64 nodes on [3.89e-6, 1.24e4],
`modes.scan = 0,1`, alpha = 1, into L^{2,inf} and L^{6,8}: far out the
flowed values (1e-163 to 1e-184) change sign between nodes, and some of
their zero crossings round onto a node, which leaves a linear piece of
zero length on the layer-cake path of every sigma != p norm.  Last,
`norm-scan` and `verify T4.2` on the zero potential in N = 5 at 200 nodes
on [0.00255, 6.97e5], mode 0, alpha = 0, t 6.3..1.64e4, into L^{4,inf},
L^{6,8} and L^{2,inf}: the far tail holds a linear piece across a wide
cell whose node value is so small that its slope underflows to 0, on the
layer-cake path of every sigma != p norm.
Each run gets its own working directory, so the paths in stdout and
stderr read the same in both trees.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SMALL_COMMON = """\
dimension = 3
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

SMALL_POTENTIALS = {
    "hardy": "potential.kind = hardy\npotential.lambda = 2.0\n",
    "zero": "potential.kind = zero\n",
    "kappa4": "potential.kind = inverse_power\npotential.amplitude = 1.0\n"
              "potential.kappa = 4.0\n",
}

# the keys of a run's result that are not output files
STREAMS = ("exit", "stdout", "stderr")

THEOREMS = ("T1.1", "T3.1", "T4.2", "T7.1", "T7.2", "T7.3", "T7.4")

EVOLVE_DATA = ("ball", "annulus", "gaussian")

OFF_DIAGONAL = "lorentz = 1,2,1,inf; 2,4,1,inf; 2,4,2,4; 1.5,3,1.5,3\n"

# negative near the origin: the one classify that takes the Dirichlet
# eigenvalue evidence, whose scipy.linalg import is deferred to it
NEGATIVE = "potential.kind = inverse_power\npotential.amplitude = -0.05\n" \
           "potential.kappa = 3.0\n"

# h_0 = r^-0.4: the sup of every flowed profile with its inner extension is
# inf, its L^2 and L^4 norms converge or diverge by the head's s = a p + N
SINGULAR = "potential.lambda = -0.24\nlorentz = 1,inf,1,inf; 1,2,1,2; 2,4,2,4\n"

# every derivative order the envelopes cover, for T3.1 and the norm-scan
HIGH_ORDER = "modes.k_max = 4\nalphas = 0,1,2,3,4\n"
HIGH_ORDER_SCAN = "modes.k_max = 3\nalphas = 0,1,2,3\n"

# 4 r_min = 8e-3 ends the family at t = 0.1 before ball_j6 (radius 4.9e-3)
# and drops annulus_j6 at t = 1 (inner radius 7.8e-3)
CUT_R_MIN = "grid.r_min = 2e-3\n"

# sqrt t_max = r_max / 20: the last flows warn of boundary contamination
LONG_TIME = "time.t_max = 2500\n"

# the critical Hardy coupling, h_0 = r^-0.5
CRITICAL = "potential.kind = hardy\npotential.lambda = -0.25\n"

# two verdict files, then the report that reads them and the merged manifest
CHAINED = (["verify", "T4.2"], ["verify", "T7.1"], ["report"])

# sqrt t <= 4 r_min at every t: the test family is empty
EMPTY_FAMILY = """\
grid.r_min = 1e-2
grid.r_max = 1e3
grid.points = 256
time.t_min = 1e-5
time.t_max = 1e-3
time.points_per_decade = 1
lorentz = 1,inf,1,inf
alphas = 0
"""

# a ball of radius 1e-8 sqrt(0.1), below r_min = 1e-8: zero at every node
EVOLVE_BELOW_GRID = "grid.points = 256\nevolve.data = ball\nevolve.scale = 1e-8\n" \
                    "time.t_max = 1\n"

# t = 0.5..50 at 2 per decade: 5 times, below the 8 a rate fit needs
SHORT_TIME = "time.t_max = 50\ntime.points_per_decade = 2\n"

# far-field sign changes whose zero crossings round onto a node
NODE_CROSSING = """\
dimension = 3
potential.kind = zero
grid.r_min = 3.89e-6
grid.r_max = 1.24e4
grid.points = 64
modes.k_max = 1
modes.scan = 0,1
time.t_min = 0.00428
time.t_max = 0.932
time.points_per_decade = 6
lorentz = 1,2,1,inf; 3,6,2,8
alphas = 1
family.j_max = 5
scheme.dt_cap = 256
"""

# a wide far cell whose line from a zero to a tiny node value has a slope
# below the float range
TINY_LINE = """\
dimension = 5
potential.kind = zero
grid.r_min = 0.00255
grid.r_max = 6.97e5
grid.points = 200
modes.k_max = 0
time.t_min = 6.3
time.t_max = 1.64e4
time.points_per_decade = 2
lorentz = 2,4,1,inf; 3,6,2,8; 1,2,1,inf
alphas = 0
family.j_max = 1
"""


def _runs() -> list[tuple[str, str, list[list[str]]]]:
    """(name, config text, the CLI arguments of each invocation) of every
    compared run."""
    runs = []
    for name, (inputs, _, _) in workloads.WORKLOADS.items():
        for seed in (0, 5):
            inp = inputs(seed)
            runs.append((f"{name}_seed{seed}", inp.config, [list(inp.command)]))
    for pot, lines in SMALL_POTENTIALS.items():
        config = SMALL_COMMON + lines
        runs.append((f"{pot}_classify", config, [["classify"]]))
        runs += [(f"{pot}_verify_{tid}", config, [["verify", tid]])
                 for tid in THEOREMS]
    runs.append(("negative_classify", SMALL_COMMON + NEGATIVE, [["classify"]]))
    runs.append(("kappa4_harmonic", SMALL_COMMON.replace(
        "modes.k_max = 2", "modes.k_max = 6") + SMALL_POTENTIALS["kappa4"],
        [["harmonic"]]))
    runs.append(("bounded_harmonic", workloads.verify_bounded_inputs(0).config,
                 [["harmonic"]]))
    for pot in ("hardy", "kappa4"):
        runs += [(f"{pot}_evolve_{data}", SMALL_COMMON + SMALL_POTENTIALS[pot]
                  + f"evolve.data = {data}\n", [["evolve"]])
                 for data in EVOLVE_DATA]
    config = workloads.scan_hardy_inputs(0).config
    scan = "".join(line + "\n" for line in config.splitlines()
                   if not line.startswith("lorentz"))
    runs.append(("norm_scan_off_diagonal", scan + OFF_DIAGONAL, [["norm-scan"]]))
    # a later line of a key overrides an earlier one
    runs.append(("norm_scan_j_max_0", config + "family.j_max = 0\n",
                 [["norm-scan"]]))
    runs.append(("norm_scan_family_cut", config + CUT_R_MIN, [["norm-scan"]]))
    runs.append(("norm_scan_singular", config + SINGULAR, [["norm-scan"]]))
    for pot in ("zero", "kappa4"):
        runs.append((f"{pot}_verify_T3.1_alpha4", SMALL_COMMON
                     + SMALL_POTENTIALS[pot] + HIGH_ORDER, [["verify", "T3.1"]]))
    runs.append(("norm_scan_alpha3", config + HIGH_ORDER_SCAN, [["norm-scan"]]))
    long_hardy = SMALL_COMMON + SMALL_POTENTIALS["hardy"] + LONG_TIME
    runs += [("hardy_long_" + "_".join(argv), long_hardy, [argv])
             for argv in (["norm-scan"], ["evolve"], ["verify", "T4.2"])]
    runs += [("critical_" + "_".join(argv), SMALL_COMMON + CRITICAL, [argv])
             for argv in (["norm-scan"], ["verify", "T4.2"])]
    runs.append(("hardy_chained_report", SMALL_COMMON + SMALL_POTENTIALS["hardy"],
                 [list(argv) for argv in CHAINED]))
    runs += [("empty_family_" + "_".join(argv), EMPTY_FAMILY, [argv])
             for argv in (["norm-scan"], ["verify", "T4.2"])]
    runs.append(("evolve_below_grid", EVOLVE_BELOW_GRID, [["evolve"]]))
    runs.append(("hardy_short_time_verify_T4.2", SMALL_COMMON
                 + SMALL_POTENTIALS["hardy"] + SHORT_TIME, [["verify", "T4.2"]]))
    runs += [("node_crossing_" + "_".join(argv), NODE_CROSSING, [argv])
             for argv in (["norm-scan"], ["verify", "T7.2"])]
    runs += [("tiny_line_" + "_".join(argv), TINY_LINE, [argv])
             for argv in (["norm-scan"], ["verify", "T4.2"])]
    return runs


RUNS = _runs()


def run_tree(src: Path, work: Path) -> dict:
    """Run every entry of RUNS with `src` first on the import path; returns
    {run name: {"exit": ..., "stdout": ..., "stderr": ..., file name: bytes}},
    each stream a tuple with one item per invocation."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = {}
    for name, config, commands in RUNS:
        cwd = work / name
        cwd.mkdir(parents=True)
        (cwd / "run.cfg").write_text(config)
        procs = [subprocess.run(
            [sys.executable, "-m", "lorentzheat.cli", "--config", "run.cfg",
             "--out", "out", *argv], cwd=cwd, env=env, capture_output=True)
            for argv in commands]
        got = {key: tuple(getattr(proc, attr) for proc in procs) for key, attr
               in zip(STREAMS, ("returncode", "stdout", "stderr"))}
        out = cwd / "out"
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"wall_clock_seconds = "))
            got[path.name] = data
        results[name] = got
    return results


def _cells(data: bytes) -> list[list[str]]:
    """The rows of a file's cells: CSV fields where a line holds a comma,
    else the whitespace-separated words."""
    return [next(csv.reader([line])) if "," in line else line.split()
            for line in data.decode(errors="replace").splitlines()]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def largest_move(a: bytes, b: bytes) -> float | None:
    """The largest |b - a| of a cell over the peak finite |value| of its
    column on either side, or None unless the two files are tables of the
    same shape whose differing cells are all numbers.  A move to or from inf
    or nan is infinite."""
    rows_a, rows_b = _cells(a), _cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    peak, moves = {}, []
    for row_a, row_b in zip(rows_a, rows_b):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                if x != y:
                    return None
                continue
            peak[col] = max([peak.get(col, 0.0)] +
                            [abs(w) for w in (u, v) if math.isfinite(w)])
            if x != y:
                moves.append((col, abs(v - u)))
    if not moves:
        return None
    # a finite nonzero move makes its column's peak nonzero
    return max(0.0 if move == 0.0 else move / peak[col] if math.isfinite(move)
               else math.inf for col, move in moves)


def differences(before: dict, after: dict) -> list[str]:
    """One line per run item that is missing on one side or differs; a
    differing numeric table has its largest move appended."""
    lines = []
    for name, _, _ in RUNS:
        a, b = before[name], after[name]
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                side = "working tree" if key not in b else "revision"
                lines.append(f"{name}: {key} missing in the {side}")
            elif a[key] != b[key]:
                line = f"{name}: {key} differs"
                move = largest_move(a[key], b[key]) if key not in STREAMS else None
                if move is not None:
                    line += f", largest move {move:.2g} of its column's peak"
                lines.append(line)
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        before = run_tree(tmp / "rev" / "src", tmp / "before")
        after = run_tree(ROOT / "src", tmp / "after")
    diff = differences(before, after)
    files = sum(len(r) - len(STREAMS) for r in after.values())
    for line in diff:
        print(line)
    verdict = f"{len(diff)} differences" if diff else "all identical"
    print(f"{len(RUNS)} runs, {files} output files against {rev}: {verdict}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
