"""One lorentzheat CLI process, as the benchmark launches it.

    python3 child.py <src dir> <mode> <work dir> -- <cli args>

mode is one of
  import   import lorentzheat.cli and exit (pre-flight; also warms bytecode)
  run      run the CLI command untraced
  trace    run the CLI command with every layer of spans.LAYERS wrapped

In every mode but `import`, the CLOCK_MONOTONIC time at which
ProfileSet.build first returns is written to <work dir>/stamp; the parent
reads the same clock before it launches, so the difference is the set-up
time from process launch.  When the command ends, the process's peak
resident memory goes to <work dir>/peak_rss_kib, and in `trace` mode the
spans go to <work dir>/spans.npz.

The peak is VmHWM, the high-water mark of the memory map that exec made.
The rusage that wait4 returns is no good here: its ru_maxrss starts from
the peak of the forked copy of the parent, which has numpy and scipy
loaded and is larger than most commands.
"""

import sys
import time
from pathlib import Path


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    src, mode, workdir, sep, *cli_args = argv
    if sep != "--" or mode not in ("import", "run", "trace"):
        raise SystemExit("usage: child.py <src> <mode> <work dir> -- <cli args>")
    workdir = Path(workdir)
    sys.path.insert(0, src)
    import lorentzheat
    from lorentzheat import cli
    if mode == "import":
        return 0

    import spans  # the script's own directory is on sys.path

    tracer = spans.Tracer()
    if mode == "trace":
        spans.install(tracer, lorentzheat)
    profile_set = getattr(lorentzheat.harmonic, "ProfileSet", None)
    build = vars(profile_set).get("build") if profile_set else None
    if not isinstance(build, classmethod):
        raise SystemExit("lorentzheat has no harmonic.ProfileSet.build to time")
    build = build.__func__
    stamped = []

    def stamp(cls, *args, **kwargs):
        result = build(cls, *args, **kwargs)
        if not stamped:
            stamped.append(time.clock_gettime(time.CLOCK_MONOTONIC))
            (workdir / "stamp").write_text(repr(stamped[0]))
        return result

    profile_set.build = classmethod(stamp)
    try:
        return cli.main(cli_args)
    finally:
        (workdir / "peak_rss_kib").write_text(str(peak_rss_kib()))
        if mode == "trace":
            tracer.dump(workdir / "spans.npz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
