import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tools/same_bytes.py puts bench/ on the import path, so it is loaded in a
# child process; prints largest_move of each pair of tables
_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from same_bytes import largest_move
pairs = json.loads(sys.argv[3])
print(json.dumps([str(largest_move(a.encode(), b.encode())) for a, b in pairs]))
"""


def _moves(pairs):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(ROOT / "tools"),
         json.dumps(pairs)], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_largest_move_of_a_numeric_table():
    assert _moves([
        # relative to the column's peak |value| on either side
        ["t,v\n1,2.0\n2,4.0\n", "t,v\n1,2.0\n2,3.0\n"],
        # a move between inf and a number is infinite, and the peak of a
        # column that holds an inf is that of its finite values
        ["t,v\n1,inf\n2,4.0\n", "t,v\n1,19.5\n2,4.0\n"],
        ["t,v\n1,inf\n2,4.0\n", "t,v\n1,inf\n2,3.0\n"],
        ["t,v\n1,nan\n", "t,v\n1,1.0\n"],
        # a text cell that differs, or another shape, has no size
        ["t,v\n1,a\n", "t,v\n1,b\n"],
        ["t,v\n1,2\n", "t,v\n1,2\n2,3\n"],
    ]) == ["0.25", "inf", "0.25", "inf", "None", "None"]
