import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Installs the benchmark's tracer in a child process, so that nothing stays
# wrapped here, and prints the layer names it could not find.
_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import lorentzheat, spans
tracer = spans.Tracer()
spans.install(tracer, lorentzheat)
print(json.dumps(tracer.skipped))
"""


def test_tracer_finds_every_layer_but_solve_banded():
    # a deleted or renamed library name would otherwise only show up as a
    # layer missing from the benchmark's per-layer trace
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["semigroup.solve_banded"]
