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
import os
import sys
from collections import namedtuple
from itertools import chain, islice

# endpoint_counts is not called here: bench/inproc.py wraps cli's names
from .diagram import (
    CountTable,
    TableBudgetError,
    _check_budget,
    _check_nonneg,
    adjacency_power_row,
    adjacency_power_rows,
    admit_table,
    build_table,
    count_bits,
    count_dp,
    is_vertex,
    vertex_heights,
)
from .dyck import admit_enumeration, endpoint_counts, endpoint_tallies, enumerate_count
from .genfunc import (LinearRecurrence, decimate, gf_closed_form, recurrence_from_gf,
                      series_coeff, series_coeffs)
from .spectral import (
    MAX_BITS,
    PrecisionExhaustedError,
    count_spectral,
    empirical_rate,
    growth_rate,
    residue_decomposition,
    spectral_columns,
)


def _nonneg(text: str) -> int:
    # int()'s default limit of 4300 digits, checked here: main lifts the process-wide limit
    # to print long counts, so a later parse in the same process would take any length
    digits = sum(map(str.isdecimal, text))
    if digits > 4300:
        raise argparse.ArgumentTypeError(f"has {digits} digits, more than the 4300 allowed")
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


def _count_gf(k: int, i: int, j: int) -> int:
    level = min(k, j)
    return series_coeff(gf_closed_form(level, i), j, nonnegative=True) if i <= level else 0


def _count_matrix(k: int, i: int, j: int) -> int:
    level = min(k, j)
    return adjacency_power_row(level, j)[i] if is_vertex(level, i, j) else 0


def _sweep_gf(k: int, jmax: int) -> list:
    admit_table(k, jmax)
    k = min(k, jmax)
    series = [series_coeffs(gf_closed_form(k, i), jmax, nonnegative=True) for i in range(k + 1)]
    return list(zip(*series))


def _sweep_dyck(k: int, jmax: int) -> list:
    admit_enumeration(k, jmax)
    return endpoint_tallies(k, jmax)


# name -> Backend(count(k, i, j), sweep(k, jmax), admit(k, jmax)).  count runs at level min(k, j)
# and sweep at min(k, jmax), since no path of j steps climbs higher: sweep[j][i] counts the paths
# to (i, j), j <= jmax, in columns of at most min(k, jmax) + 1 entries.  admit raises sweep's
# refusal before any work.  count and sweep look this module's functions up when called, so a
# wrapper installed here later sees every call.  --backend and verify's admissions keep this order.
Backend = namedtuple("Backend", "count sweep admit")
BACKENDS = {
    "dp": Backend(lambda k, i, j: count_dp(k, i, j),
                  lambda k, jmax: build_table(k, jmax).columns, admit_table),
    "dyck": Backend(lambda k, i, j: enumerate_count(k, i, j), _sweep_dyck, admit_enumeration),
    "gf": Backend(_count_gf, _sweep_gf, admit_table),
    "spectral": Backend(lambda k, i, j: count_spectral(k, i, j),
                        lambda k, jmax: spectral_columns(k, jmax), admit_table),
    "matrix": Backend(_count_matrix, lambda k, jmax: adjacency_power_rows(k, jmax), admit_table),
}


def count_via(backend: str, k: int, i: int, j: int) -> int:
    """One path count by the named backend, at level min(k, j); an error names the k asked for.
    An answer that could exceed 4 * MAX_ENTRIES bits is refused before any backend runs."""
    _check_nonneg(k=k, i=i, j=j)
    if min(k, j) < 2:  # no backend runs: level 1 reaches each vertex once, level 0 only (0, 0)
        return int(is_vertex(min(k, j), i, j) and (k > 0 or j == 0))
    # str() of 4 * 10**6 bits alone takes about 23 s on Python 3.11, where it is quadratic
    _check_budget(f"count for k={k}, j={j} needs up to", count_bits(k, j), "bits", 4)
    return BACKENDS[backend].count(k, i, j)


def _pick_auto(k: int, j: int, paranoid: bool) -> str:
    if paranoid and j <= 14:
        return "dyck"
    # measured at levels 2..80, j <= 2*10**4: from j = level**2 on, the folded matrix is within
    # 1.2x of dp up to level 64.  Spectral is never picked, though since its integer evaluator
    # it beats dp 1.7-1.9x at levels 100-1000
    level = min(k, j)
    return "matrix" if level <= 64 and level * level <= j else "dp"


def _cmd_count(args) -> int:
    backend = args.backend
    if backend not in BACKENDS:  # auto
        backend = _pick_auto(args.k, args.j, args.paranoid)
    if args.verbose:
        print(f"backend: {backend}", file=sys.stderr)
    print(count_via(backend, args.k, args.i, args.j))
    return 0


# ---------------------------------------------------------------------------
# table emission


def _fill(table: CountTable, head: str, field, tail: str) -> str:
    # head, field(i, j) at every vertex in (j, i) order and tail, as one printf template applied
    # once to the counts: %s writes each count's digits straight into the text, the same for int
    # and Decimal counts (%d would turn each Decimal back into an int).  The fields are joined
    # 4096 at a time, so no str per vertex is kept; no field is empty, so "" ends them
    k = table.k
    fields = (field(i, j) for j in range(table.jmax + 1) for i in vertex_heights(k, j))
    chunks = iter(lambda: "".join(islice(fields, 4096)), "")
    # column j's vertices are its entries i = j % 2, j % 2 + 2, ... up to min(k, j)
    counts = chain.from_iterable(col[j % 2:j + 1:2] for j, col in enumerate(table.columns))
    return "".join([head, *chunks, tail]) % tuple(counts)


def table_to_csv(table: CountTable) -> str:
    return _fill(table, "j,i,count\n", "{1},{0},%s\n".format, "")


def table_to_json(table: CountTable) -> str:
    # json.dumps's layout: counts are digit strings, so nothing needs escaping, and (0, 0) is
    # the only vertex without a separator before it
    return _fill(table, f'{{"k": {table.k}, "jmax": {table.jmax}, "entries": [',
                 lambda i, j: f'{", " if j else ""}{{"i": {i}, "j": {j}, "count": "%s"}}', "]}\n")


def table_to_pretty(table: CountTable) -> str:
    """Triangular plain-text layout, heights top-down, lengths left-right.

    The layout has a row for every height up to k and pads every cell to the
    widest count, so it is refused with TableBudgetError when it would hold
    more than MAX_ENTRIES cells or MAX_ENTRIES * 128 bytes.
    """
    what = f"pretty table for k={table.k}, jmax={table.jmax} needs"
    _check_budget(what, (table.k + 1) * (table.jmax + 1), "cells")
    # D(i, j) <= D(i, j + 2) for k >= 1, so the last two columns hold the widest count; at k = 0
    # the width is 1 either way
    width = max(len(str(max(map(max, table.columns[-2:])))), len(str(table.jmax)))
    _check_budget(what, (table.k + 1) * (table.jmax + 1) * (width + 1), "bytes", 128)
    # one template over the counts: height i has vertices at lengths i, i + 2, ...; its first
    # count ends cell i, and each later one is padded over a blank cell and two separators
    rows = range(min(table.k, table.jmax), -1, -1)
    template = [f"{i:>3} | \n" for i in range(table.k, table.jmax, -1)]  # no path climbs above jmax
    template += (f"{i:>3} | %{i * (width + 1) + width}s"
                 + f"%{2 * width + 2}s" * ((table.jmax - i) // 2) + "\n" for i in rows)
    template.append("----+-" + "-" * ((width + 1) * (table.jmax + 1) - 1) + "\n")
    template.append("  j | " + " ".join(str(j).rjust(width) for j in range(table.jmax + 1)) + "\n")
    return "".join(template) % tuple(col[i] for i in rows for col in table.columns[i::2])


def _decimal_table(k: int, jmax: int) -> CountTable:
    # build_table over exact Decimal counts: libmpdec's str() is linear in the digits, int's is
    # quadratic on Python 3.11.  The context holds any count and traps Inexact, so a rounding
    # raises instead of printing wrong digits; the caller's own context is left as it was
    import decimal
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return build_table(k, jmax, decimal.Decimal(1))


def _cmd_table(args) -> int:
    to_text = {"csv": table_to_csv, "json": table_to_json, "pretty": table_to_pretty}[args.format]
    text = to_text(_decimal_table(args.k, args.jmax))
    # in 64 KiB pieces, below glibc's 128 KiB mmap threshold: a larger slice, and its encoded
    # copy, is mapped fresh and faulted in again on every write
    for start in range(0, len(text), 1 << 16):
        sys.stdout.write(text[start:start + (1 << 16)])
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
    # the recurrence's initial terms: about k + 2 terms of k / 2 + 1 products each, with text
    # growing as k**2.  Measured in process at height 0: k = 1000, 5.0e5 products, 0.12 s; k =
    # 2000, 2.0e6, 0.93 s (1.2 MB); k = 2450, 3.0e6, 2.4 s; k = 3000, 4.5e6, 4.3 s (2.7 MB)
    _check_budget(f"gf for k={args.k} needs", (args.k // 2 + 1) * (args.k + 2), "products", 3)
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


def _admit_bits(what: str, bits: int) -> None:
    # measured: residues --k 5 --i 0 --bits 65536 takes 1.0 s and rate --k 5 --digits 16384 (65536
    # bits) 0.27 s, while a million bits of residues ran past 30 s
    if bits > MAX_BITS:
        raise ValueError(f"{what} {bits} bits, budget is {MAX_BITS}")


def _cmd_residues(args) -> int:
    _admit_bits(f"residues for k={args.k} need", args.bits)
    import mpmath
    dec = residue_decomposition(args.k, args.i, bits=args.bits)
    # no more digits than the precision holds
    digits = min(max(15, args.bits // 4), mpmath.libmp.prec_to_dps(args.bits))
    for r, (weight, pole) in enumerate(dec.terms, start=1):
        print(f"{r} {mpmath.nstr(weight, digits)} {mpmath.nstr(pole, digits)}")
    return 0


def _cmd_rate(args) -> int:
    bits = max(128, 4 * args.digits)
    _admit_bits(f"rate to {args.digits} digits needs", bits)
    admit_table(args.k, args.jmax)  # the empirical rate walks the DP columns of this table
    import mpmath
    exact = growth_rate(args.k, bits=bits)
    print("exact", mpmath.nstr(exact, args.digits))
    try:
        emp = empirical_rate(args.k, args.i, args.jmax, bits=bits)
    except ValueError as exc:  # counts that vanish, or a jmax with too few lengths
        print(f"empirical undefined ({exc})")
        return 0
    print("empirical", mpmath.nstr(emp, args.digits))
    print("diff", mpmath.nstr(abs(exact - emp), 3))
    return 0


# ---------------------------------------------------------------------------
# cross-backend verification


def _verify_task(task: tuple) -> list:
    """Worker: sweep one level-k diagram, k <= jmax, with every backend and compare."""
    k, jmax, backends = task
    return compare_backends(k, [BACKENDS[name].sweep(k, jmax) for name in backends])


def compare_backends(k: int, sweeps: list) -> list:
    """Pair the first of one level's sweeps, lists of columns, against each other one.

    Returns one first mismatch per pair: None, or (k, i, j, ref_value,
    other_value) at the first vertex in (j, i) order where the two differ.
    """
    ref = sweeps[0]
    out = []
    for other in sweeps[1:]:
        diffs = ((k, i, j, ref[j][i], other[j][i])
                 for j in range(len(ref)) for i in vertex_heights(k, j) if ref[j][i] != other[j][i])
        out.append(next(diffs, None))
    return out


# the estimated work, in units of about 1 us of serial sweeping, from which verify's levels run in
# a process pool: below it, the pool's fixed cost (importing concurrent.futures.process, starting
# the workers, collecting their results: about 50 ms) outweighs a second worker's gain.  dyck's
# frontier enumerates a path in 4.5-7 ns at levels 19-26, so 150 paths are one unit, as is a depth.
# Whole processes on 2 vCPUs, medians of 11 and of 21 alternating pairs, serial against pooled:
# (kmax, jmax) = (20, 200), 298,595 units, 0.29 and 0.23 s against 0.24 and 0.23 s; dp,dyck at
# (26, 22), 187,750 units, 0.24 and 0.23 s against 0.23 and 0.22 s; (22, 220), 431,398 units, 0.37
# and 0.29 s against 0.31 and 0.28 s.  Near the crossover the two are within the machine's noise
POOL_MIN_WORK = 250_000


def _verify_workers(jobs: int, sizes: list, jmax: int, backends: tuple) -> int:
    """How many processes, at most jobs, sweep levels 0..len(sizes) - 1 up to jmax: one unless
    the estimated work reaches POOL_MIN_WORK.  Each of level k's sizes[k] vertices costs k units,
    as the spectral and gf sweeps' work per vertex grows with the level; dyck's enumeration costs
    a unit per 150 of the nodes admit_enumeration charges, its paths and 150 for each depth."""
    work = sum(k * size for k, size in enumerate(sizes))
    if "dyck" in backends:  # every level is admitted by now, so none raises
        work += sum(admit_enumeration(k, jmax) // 150 for k in range(len(sizes)))
    return min(jobs, len(sizes)) if work >= POOL_MIN_WORK else 1


def _cmd_verify(args) -> int:
    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())
    for name in backends:
        if name not in BACKENDS:
            raise ValueError(f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}")
    if len(backends) < 2:
        raise ValueError("need at least two backends to compare")
    if len(set(backends)) != len(backends):
        raise ValueError("duplicate backend names")
    # a level above jmax sweeps what level jmax sweeps: run levels up to jmax, count the rest
    sizes = [admit_table(k, args.jmax) for k in range(min(args.kmax, args.jmax) + 1)]
    tasks = [(k, args.jmax, backends) for k in range(len(sizes))]  # all admitted before any runs:
    for name in (name for name in BACKENDS if name in backends):  # the tables, then each other
        if BACKENDS[name].admit is not admit_table:  # listed backend's sweep, in registry order
            for k, _, _ in tasks:
                BACKENDS[name].admit(k, args.jmax)
    queries = sum(sizes) + max(args.kmax - args.jmax, 0) * sizes[-1]  # sizes[-1]: level jmax
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    workers = _verify_workers(jobs, sizes, args.jmax, backends)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            levels = list(pool.map(_verify_task, tasks))
    else:
        levels = [_verify_task(task) for task in tasks]
    ref = backends[0]
    # levels are in k order, so a pair's first mismatch is its lowest in (k, j, i)
    mismatches = [next(filter(None, found), None) for found in zip(*levels)]
    for other, mismatch in zip(backends[1:], mismatches):
        if mismatch is None:
            print(f"{ref} vs {other}: ok ({queries} queries)")
        else:
            k, i, j, va, vb = mismatch
            print(f"{ref} vs {other}: MISMATCH at k={k} i={i} j={j}: {ref}={va} {other}={vb}")
    if any(mismatches):
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
    p.add_argument("--jobs", type=_positive, default=None,
                   help="at most this many worker processes (default: the CPU count);"
                        " small verifies run serially")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.11 on: print counts of any length,
        sys.set_int_max_str_digits(0)  # once argv's ints are parsed under the default limit
    try:
        return args.func(args)
    except (ValueError, TableBudgetError, PrecisionExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
