"""Command-line interface.

Subcommands: count, table, gf, residues, rate, verify.  Counts are always
printed as exact decimal integers (never floats); reals go through
mpmath.nstr with a digit budget.  Exit codes: 0 on success, 1 when verify
finds disagreeing backends, 2 for usage, domain, or io errors.  Output is
deterministic: identical argument vectors produce byte-identical output,
including `verify --jobs N` for any N.  Pretty tables are plain text with
no colour codes, so NO_COLOR always holds by construction.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import mpmath

from .diagram import (
    MAX_ENTRIES,
    CountTable,
    TableBudgetError,
    _check_nonneg,
    adjacency_power_row,
    build_table,
    count_dp,
    count_matrix_power,
)
from .dyck import EnumerationBudgetError, endpoint_counts, enumerate_count
from .genfunc import LinearRecurrence, decimate, gf_closed_form, recurrence_from_gf, series_coeffs
from .spectral import (
    PrecisionExhaustedError,
    count_spectral,
    empirical_rate,
    growth_rate,
    residue_decomposition,
)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


# ---------------------------------------------------------------------------
# backend dispatch


def _vertices(k: int, jmax: int) -> list:
    return [(i, j) for j in range(jmax + 1) for i in range(j % 2, min(k, j) + 1, 2)]


def _sweep_columns(column, k: int, jmax: int) -> dict:
    # column(k, j) gives the counts at every height 0..k for one length j
    cols = [column(k, j) for j in range(jmax + 1)]
    return {(i, j): cols[j][i] for (i, j) in _vertices(k, jmax)}


def _sweep_gf(k: int, jmax: int) -> dict:
    series = [series_coeffs(gf_closed_form(k, i), jmax, nonnegative=True) for i in range(k + 1)]
    return {(i, j): series[i][j] for (i, j) in _vertices(k, jmax)}


# name -> (count(k, i, j), sweep(k, jmax) -> {(i, j): count} over every vertex).
# The entries look the module's functions up when called, so a wrapper
# installed on this module afterwards sees every call.  The order is the
# order of --backend's choices and of verify's "choose from" list.
BACKENDS = {
    "dp": (lambda k, i, j: count_dp(k, i, j), lambda k, jmax: build_table(k, jmax).entries),
    "dyck": (
        lambda k, i, j: enumerate_count(k, i, j),
        lambda k, jmax: _sweep_columns(endpoint_counts, k, jmax),
    ),
    "gf": (
        lambda k, i, j: (
            series_coeffs(gf_closed_form(k, i), j, nonnegative=True)[j] if i <= k else 0
        ),
        _sweep_gf,
    ),
    "spectral": (
        lambda k, i, j: count_spectral(k, i, j),
        lambda k, jmax: {(i, j): count_spectral(k, i, j) for (i, j) in _vertices(k, jmax)},
    ),
    "matrix": (
        lambda k, i, j: count_matrix_power(k, i, j),
        lambda k, jmax: _sweep_columns(adjacency_power_row, k, jmax),
    ),
}


def count_via(backend: str, k: int, i: int, j: int) -> int:
    """One path count through the named backend.

    No path of j steps climbs above height j, so every backend runs at level
    min(k, j); an error still names the k that was asked for.
    """
    _check_nonneg(k=k, i=i, j=j)
    level = min(k, j)
    try:
        return BACKENDS[backend][0](level, i, j)
    except PrecisionExhaustedError as exc:
        raise PrecisionExhaustedError(str(exc).replace(f"(k={level},", f"(k={k},", 1)) from None


def _pick_auto(k: int, i: int, j: int, paranoid: bool) -> str:
    if paranoid and j <= 14:
        return "dyck"
    if j >= 100 and i <= k:
        return "spectral"
    return "dp"


def _cmd_count(args) -> int:
    backend = args.backend
    if backend not in BACKENDS:  # auto
        backend = _pick_auto(args.k, args.i, args.j, args.paranoid)
    if args.verbose:
        print(f"backend: {backend}", file=sys.stderr)
    print(count_via(backend, args.k, args.i, args.j))
    return 0


# ---------------------------------------------------------------------------
# table emission


def table_to_csv(table: CountTable) -> str:
    lines = ["j,i,count"]
    for (i, j) in sorted(table.entries, key=lambda key: (key[1], key[0])):
        lines.append(f"{j},{i},{table.entries[(i, j)]}")
    return "\n".join(lines) + "\n"


def table_to_json(table: CountTable) -> str:
    entries = [
        {"i": i, "j": j, "count": str(table.entries[(i, j)])}
        for (i, j) in sorted(table.entries, key=lambda key: (key[1], key[0]))
    ]
    return json.dumps({"k": table.k, "jmax": table.jmax, "entries": entries}) + "\n"


def table_to_pretty(table: CountTable) -> str:
    """Triangular plain-text layout, heights top-down, lengths left-right.

    The layout has a row for every height up to k, so it is refused with
    TableBudgetError when it would hold more than MAX_ENTRIES cells.
    """
    cells = (table.k + 1) * (table.jmax + 1)
    if cells > MAX_ENTRIES:
        raise TableBudgetError(
            f"pretty table for k={table.k}, jmax={table.jmax} needs {cells} cells,"
            f" budget is {MAX_ENTRIES}"
        )
    width = max((len(str(c)) for c in table.entries.values()), default=1)
    width = max(width, len(str(table.jmax)))
    lines = []
    for i in range(table.k, -1, -1):
        cells = []
        for j in range(table.jmax + 1):
            if (i, j) in table.entries:
                cells.append(str(table.entries[(i, j)]).rjust(width))
            else:
                cells.append(" " * width)
        lines.append(f"{i:>3} | " + " ".join(cells).rstrip())
    lines.append("----+-" + "-" * ((width + 1) * (table.jmax + 1) - 1))
    lines.append("  j | " + " ".join(str(j).rjust(width) for j in range(table.jmax + 1)))
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    table = build_table(args.k, args.jmax)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(table))
    elif args.format == "json":
        sys.stdout.write(table_to_json(table))
    else:
        sys.stdout.write(table_to_pretty(table))
    return 0


# ---------------------------------------------------------------------------
# generating functions and recurrences


def format_recurrence(rec: LinearRecurrence) -> str:
    pieces = []
    for t, c in enumerate(rec.coeffs, start=1):
        if c == 0:
            continue
        term = f"a_{{m-{t}}}" if abs(c) == 1 else f"{abs(c)}a_{{m-{t}}}"
        if not pieces:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + term)
    if not pieces:
        return "a_m = 0"
    return "a_m = " + " ".join(pieces)


def _cmd_gf(args) -> int:
    g = gf_closed_form(args.k, args.i)
    if args.even:
        g, offset = decimate(g)
        print(f"offset: {offset}")
    rec = recurrence_from_gf(g)
    print("num:", " ".join(str(c) for c in g.num) if g.num else "0")
    print("den:", " ".join(str(c) for c in g.den))
    print("recurrence:", format_recurrence(rec))
    print("initial:", " ".join(str(c) for c in rec.initial))
    return 0


def _cmd_residues(args) -> int:
    dec = residue_decomposition(args.k, args.i, bits=args.bits)
    digits = max(15, args.bits // 4)
    for r, (weight, pole) in enumerate(dec.terms, start=1):
        print(f"{r} {mpmath.nstr(weight, digits)} {mpmath.nstr(pole, digits)}")
    return 0


def _cmd_rate(args) -> int:
    bits = max(128, 4 * args.digits)
    exact = growth_rate(args.k, bits=bits)
    print("exact", mpmath.nstr(exact, args.digits))
    try:
        emp = empirical_rate(args.k, args.i, args.jmax, bits=bits)
    except ValueError:
        print("empirical undefined (counts vanish)")
        return 0
    print("empirical", mpmath.nstr(emp, args.digits))
    print("diff", mpmath.nstr(abs(exact - emp), 3))
    return 0


# ---------------------------------------------------------------------------
# cross-backend verification


def _verify_task(task: tuple) -> tuple:
    """Worker: all requested backends over every vertex of one level-k diagram."""
    k, jmax, backends = task
    return k, {backend: BACKENDS[backend][1](k, jmax) for backend in backends}


def compare_backends(results: list, backends: tuple) -> list:
    """Pair the first backend against each other one.

    ``results`` is a list of (k, {backend: {(i, j): count}}).  Returns one
    (ref, other, queries, first_mismatch) tuple per pair, where
    first_mismatch is None or (k, i, j, ref_value, other_value), first in
    (k, j, i) order.
    """
    ref = backends[0]
    out = []
    for other in backends[1:]:
        queries = 0
        first = None
        for k, by_backend in sorted(results, key=lambda item: item[0]):
            a, b = by_backend[ref], by_backend[other]
            queries += len(a)
            if first is None:
                for (i, j) in sorted(a, key=lambda key: (key[1], key[0])):
                    if a[(i, j)] != b[(i, j)]:
                        first = (k, i, j, a[(i, j)], b[(i, j)])
                        break
        out.append((ref, other, queries, first))
    return out


def _cmd_verify(args) -> int:
    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())
    for name in backends:
        if name not in BACKENDS:
            raise ValueError(f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}")
    if len(backends) < 2:
        raise ValueError("need at least two backends to compare")
    if len(set(backends)) != len(backends):
        raise ValueError("duplicate backend names")
    if "dyck" in backends and args.jmax > 26:
        raise ValueError("the dyck backend enumerates at most 26 steps; lower --jmax")
    tasks = [(k, args.jmax, backends) for k in range(args.kmax + 1)]
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_verify_task, tasks))
    else:
        results = [_verify_task(task) for task in tasks]
    failed = False
    for ref, other, queries, mismatch in compare_backends(results, backends):
        if mismatch is None:
            print(f"{ref} vs {other}: ok ({queries} queries)")
        else:
            failed = True
            k, i, j, va, vb = mismatch
            print(f"{ref} vs {other}: MISMATCH at k={k} i={i} j={j}: {ref}={va} {other}={vb}")
    if failed:
        print(f"verification failed (kmax={args.kmax}, jmax={args.jmax})")
        return 1
    print(f"all backends agree (kmax={args.kmax}, jmax={args.jmax})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Exact path counts in the level-k Bratteli diagram, five ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="one path count")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--i", type=_nonneg, required=True)
    p.add_argument("--j", type=_nonneg, required=True)
    p.add_argument("--backend", choices=[*BACKENDS, "auto"], default="dp")
    p.add_argument("--paranoid", action="store_true", help="auto prefers enumeration when feasible")
    p.add_argument("--verbose", action="store_true", help="report the chosen backend on stderr")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="all counts up to a length bound")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--jmax", type=_nonneg, required=True)
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("gf", help="reduced generating function and recurrence for one height")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--i", type=_nonneg, required=True)
    p.add_argument("--even", action="store_true", help="collapse parity: report in t = x**2")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("residues", help="spectral weights and poles for one height")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--i", type=_nonneg, required=True)
    p.add_argument("--bits", type=_positive, default=128)
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("rate", help="asymptotic growth rate, exact and empirical")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--i", type=_nonneg, default=0)
    p.add_argument("--jmax", type=_nonneg, default=200)
    p.add_argument("--digits", type=_positive, default=12)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("verify", help="sweep all queries and compare backends")
    p.add_argument("--kmax", type=_nonneg, required=True)
    p.add_argument("--jmax", type=_nonneg, required=True)
    p.add_argument("--backends", default="dp,matrix,gf,spectral")
    p.add_argument("--jobs", type=_positive, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, TableBudgetError, EnumerationBudgetError, PrecisionExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
