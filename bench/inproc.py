"""In-process half of the traced run; started by run.py in a fresh interpreter.

``python3 inproc.py plain|traced`` reads one op per line of stdin (JSON),
runs it through ``bratteli.cli.main(argv)`` with stdout and stderr
captured, and answers each with one line ``{"time", "error", "spans"}``.
In ``traced`` mode the public functions that ``bratteli.cli``,
``bratteli.genfunc`` and ``bratteli.spectral`` look up, plus the verify
level worker, are wrapped from outside first; each call records a span
``[name, start, end, parent, info]``, where parent indexes the op's own
spans.  Spans are kept in memory until the op's reply.  run.py alternates
ops between a plain and a traced interpreter, so both see the same machine
and the difference is the cost of tracing.

``python3 inproc.py probe`` answers one request per line:
``{"crossover": [k, i, j]}`` with the time of every exact backend through
``count_via`` (``{"times": {...}, "error"}``), and
``{"residue": [[k, i, j], ...]}``, the spectral calls of one op, with the
time of ``residue_decomposition`` at ``count_spectral``'s start precision
for each of them (``{"time"}``).

A fresh CLI process starts with spectral's angle cache empty, so the cache
is cleared before every op, every crossover timing and every op's residues.  Every op's output is checked
against the benchmark's own oracle after its timer stops.
"""

import contextlib
import io
import json
import sys
import time

import oracle

from bratteli import cli, genfunc, spectral


def _none(args, result):
    return []


def _ints(args, result):
    return [a for a in args if isinstance(a, int)]


def _size(args, result):
    return [len(result)]


# name in the module -> (layer.name of its spans, what a span records of the call)
TRACED = {
    cli: {
        "main": ("cli.main", _none),
        "count_via": ("cli.count_via", lambda args, result: list(args)),
        "_verify_task": ("cli.verify_level", lambda args, result: list(args[0][:2])),
        "compare_backends": ("cli.compare_backends", _none),
        "table_to_csv": ("cli.format.csv", _size),
        "table_to_json": ("cli.format.json", _size),
        "table_to_pretty": ("cli.format.pretty", _size),
        "count_dp": ("diagram.count_dp", _ints),
        "build_table": ("diagram.build_table", lambda args, result: [len(result.entries)]),
        "adjacency_power_row": ("diagram.adjacency_power_row", _ints),
        "enumerate_count": ("dyck.enumerate_count", _ints),
        "endpoint_counts": ("dyck.endpoint_counts", _ints),
        "gf_closed_form": ("genfunc.gf_closed_form", _ints),
        "series_coeffs": ("genfunc.series_coeffs", _ints),
        "recurrence_from_gf": ("genfunc.recurrence_from_gf", _none),
        "count_spectral": ("spectral.count_spectral", _ints),
    },
    genfunc: {
        "poly_gcd": ("genfunc.poly_gcd", _none),
        "series_coeffs": ("genfunc.series_coeffs", _ints),
    },
}


class Tracer:
    """Collects spans from wrappers installed on module attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, info, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, info(args, result) if result is not None else []]

        return traced

    def install(self):
        for module, names in TRACED.items():
            for attr, (name, info) in names.items():
                setattr(module, attr, self._wrap(name, info, getattr(module, attr)))

    def take(self) -> list:
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def serve(tracer) -> None:
    check = oracle.Checker()
    if tracer:
        tracer.install()
    for line in sys.stdin:
        op = json.loads(line)
        spectral._angles.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except Exception as exc:  # a crash fails this op, not the run
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        reply = {"time": elapsed, "error": check(op, rc, out.getvalue().encode()),
                 "spans": tracer.take() if tracer else []}
        print(json.dumps(reply), flush=True)


def crossover(k: int, i: int, j: int) -> dict:
    times, error = {}, None
    want = oracle.count(k, i, j)
    for backend in ("dp", "matrix", "gf", "spectral"):
        spectral._angles.cache_clear()
        t0 = time.perf_counter()
        got = cli.count_via(backend, k, i, j)
        times[backend] = time.perf_counter() - t0
        if got != want:
            error = f"count_via({backend!r}, {k}, {i}, {j}) is wrong"
    return {"times": times, "error": error}


def residues(calls: list) -> dict:
    """Time the weights of one op's spectral calls, with the cache as cold as
    in a fresh CLI process at the start of the op."""
    spectral._angles.cache_clear()
    t0 = time.perf_counter()
    for k, i, j in calls:
        spectral.residue_decomposition(k, i, bits=max(64, j + 32))  # count_spectral's first rung
    return {"time": time.perf_counter() - t0}


def probe() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = crossover(*req["crossover"]) if "crossover" in req else residues(req["residue"])
        print(json.dumps(reply), flush=True)


def main() -> None:
    mode = sys.argv[1]
    if mode == "probe":
        probe()
    else:
        serve(Tracer() if mode == "traced" else None)


if __name__ == "__main__":
    main()
