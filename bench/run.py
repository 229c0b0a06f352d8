"""Benchmark of the lorentzheat CLI, end to end and layer by layer.

    python3 bench/run.py --workload scan_hardy --seed 0 --seconds 36 --trace 0

Each round times the reference computation of `calibrate` three times,
then launches the workload's CLI command in a fresh process; every launch
gives one wall-time and one set-up sample.  With --trace 1 a round adds
one more launch with every layer of spans.LAYERS wrapped.  Launches run
one after another, and rounds repeat while one more round of the mean
length so far still fits in --seconds, so a run takes about --seconds
whatever the speed of the machine.  The end-to-end times are scaled to
the reference speed of `calibrate` (the raw samples go to result.json).
Outputs are checked against the references in `reference`; the last line
of stdout is the JSON result.  Run artifacts go to .bench_runs/<workload>/
at the repository root.
"""

import os

# pin BLAS/OpenMP before numpy loads, here and in every child
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
CALIBRATION_PER_ROUND = 3


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Launch:
    mode: str
    workdir: Path
    code: int
    wall_s: float
    setup_s: float | None
    rss_mib: float | None   # the child's own peak, see child.py
    cpu_s: float

    @property
    def ok(self):
        return self.code == 0 and None not in (self.setup_s, self.rss_mib)

    @property
    def out(self):
        return self.workdir / "out"


def launch(mode, workdir, cfg_path, command, env) -> Launch:
    """Run child.py once and wait for it."""
    workdir.mkdir(parents=True)
    stamp = workdir / "stamp"
    peak = workdir / "peak_rss_kib"
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), mode, str(workdir),
            "--", "--config", str(cfg_path),
            "--out", str(workdir / "out"), *command]
    with open(workdir / "log.txt", "w") as log:
        start = monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.is_file() else None
    rss = int(peak.read_text()) / 1024.0 if peak.is_file() else None
    return Launch(mode, workdir, code, wall, setup, rss,
                  usage.ru_utime + usage.ru_stime)


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name != "manifest.txt"}


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **THREAD_PINS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lorentzheat" / "cli.py").is_file():
        print(f"no lorentzheat sources under {SRC}", file=sys.stderr)
        return 2
    make_inputs, make_reference, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "run.cfg"
    cfg_path.write_text(inputs.config)
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)

    pre = launch("import", run_dir / "preflight", cfg_path, inputs.command, env)
    if pre.code != 0:
        print(f"lorentzheat does not import; see {pre.workdir / 'log.txt'}",
              file=sys.stderr)
        return 2
    reference = make_reference(inputs) if make_reference else None

    modes = ["run", "trace"] if args.trace else ["run"]
    launches = []
    calibration = []
    calibrate.sample()  # warm-up, not timed
    measured = 0.0
    rounds = 0
    while rounds == 0 or measured * (rounds + 1) / rounds <= args.seconds:
        for _ in range(CALIBRATION_PER_ROUND):
            calibration.append(calibrate.sample())
            measured += calibration[-1]
        for j, mode in enumerate(modes):
            one = launch(mode, run_dir / f"r{rounds}-{j}-{mode}", cfg_path,
                         inputs.command, env)
            launches.append(one)
            measured += one.wall_s
        rounds += 1
    # times at the reference speed: this run's machine ran the reference
    # computation in median(calibration) instead of calibrate.REFERENCE_S
    speed = calibrate.REFERENCE_S / statistics.median(calibration)

    failed = [x for x in launches if not x.ok]
    full = [x for x in launches if x.ok and x.mode in ("run", "trace")]
    runs = [x for x in full if x.mode == "run"]
    if not runs:
        print(f"every run failed; see {launches[0].workdir / 'log.txt'}",
              file=sys.stderr)
        return 1
    ref_err, problems = check(runs[0].out, inputs, reference)
    problems += workloads.manifest_problems(runs[0].out)
    first = digests(runs[0].out)
    for x in full[1:]:
        problems += [f"{x.workdir.name}: {p}"
                     for p in workloads.manifest_problems(x.out)]
        if digests(x.out) != first:
            problems.append(f"{x.workdir.name}: outputs differ from the first run")
        shutil.rmtree(x.out)

    walls = [x.wall_s for x in runs]
    if args.trace:
        traced = [x for x in full if x.mode == "trace"]
        if not traced:
            print("every traced run failed", file=sys.stderr)
            return 1
        samples = [spans.per_layer(spans.load(x.workdir / "spans.npz"))
                   for x in traced]
        skipped = samples[0][1]
        metrics = {name: {"value": statistics.median(s[0][name][0] for s in samples),
                          "unit": unit}
                   for name, (unit, _kind, _src) in spans.METRICS.items()}
        metrics["trace.overhead_s"] = {
            "value": speed * (statistics.median(x.wall_s for x in traced)
                              - statistics.median(walls)), "unit": "s"}
        print("layers not found (reported as 0): " + (", ".join(skipped) or "none"))
    else:
        metrics = {
            "setup_s": {"value": speed * statistics.median(x.setup_s for x in runs),
                        "unit": "s"},
            "wall_s": {"value": speed * statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(x.rss_mib for x in runs),
                             "unit": "MiB"},
            "ref_err": {"value": ref_err, "unit": "1"},
        }

    info = {"workload": args.workload, "seed": args.seed, "window": inputs.window,
            "rounds": rounds, "launches": len(launches), "speed": speed,
            "samples": {"wall_s": walls, "cpu_s": [x.cpu_s for x in runs],
                        "setup_s": [x.setup_s for x in runs],
                        "calibration_s": calibration},
            "environment": environment(), "problems": problems}
    (run_dir / "result.json").write_text(json.dumps({**info, "metrics": metrics},
                                                    indent=1))
    print(f"environment: {json.dumps(info['environment'])}")
    print(f"workload {args.workload} seed {args.seed} window {inputs.window} "
          f"rounds {rounds} launches {len(launches)}")
    print(f"raw medians: wall {statistics.median(walls):.6g} s, setup "
          f"{statistics.median(x.setup_s for x in runs):.6g} s; reference "
          f"computation {statistics.median(calibration):.6g} s, so times are "
          f"scaled by {speed:.4g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": len(launches),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
