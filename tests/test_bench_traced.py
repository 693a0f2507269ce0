"""The benchmark's traced run works on this tree.

``bench/inproc.py traced`` wraps the functions it names in ``TRACED`` with
``getattr`` and records ``len()`` of every ``table_to_*`` result, so a
renamed function or a formatter that no longer returns a ``str`` breaks
``bench/run.py --trace 1``.  This pipes a few ops through it and checks that
every op passes the benchmark's oracle and that the spans are recorded,
each formatter's with the length of the text the command prints.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

from bratteli import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPS = [
    {"kind": "count", "argv": ["count", "--k", "3", "--i", "1", "--j", "11"],
     "k": 3, "i": 1, "j": 11},
    {"kind": "count", "argv": ["count", "--k", "2", "--i", "0", "--j", "150", "--backend", "matrix"],
     "k": 2, "i": 0, "j": 150},
    {"kind": "verify", "argv": ["verify", "--kmax", "3", "--jmax", "10", "--jobs", "1"],
     "kmax": 3, "jmax": 10, "backends": ["dp", "matrix", "gf", "spectral"]},
] + [
    {"kind": "table", "argv": ["table", "--k", "4", "--jmax", "9", "--format", fmt],
     "k": 4, "jmax": 9, "format": fmt}
    for fmt in ("csv", "json", "pretty")
]


def test_bench_traced_run_records_spans():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "inproc.py"), "traced"],
        input="".join(json.dumps(op) + "\n" for op in OPS),
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(replies) == len(OPS), proc.stderr
    assert [reply["error"] for reply in replies] == [None] * len(OPS)
    spans = {span[0]: span[4] for reply in replies for span in reply["spans"]}
    assert "diagram.build_table" in spans
    assert spans["diagram.adjacency_power_row"] == [2, 150]  # the matrix count's (level, j)
    for op in (op for op in OPS if op["kind"] == "table"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(op["argv"]) == 0
        assert spans[f"cli.format.{op['format']}"] == [len(out.getvalue())], op["format"]
