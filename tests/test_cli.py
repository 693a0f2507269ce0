import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from types import SimpleNamespace

import mpmath
import pytest

import bratteli
from bratteli import cli, diagram, dyck, spectral
from bratteli.closed_forms import catalan, closed_form, count_unbounded
from bratteli.diagram import (
    TableBudgetError,
    _check_height,
    build_table,
    count_dp,
    table_size,
)
from bratteli.dyck import enumerate_count, factorize, iter_paths
from bratteli.genfunc import (
    GF_ONE,
    bounded_dyck_gf,
    chebyshev_u,
    gf_closed_form,
    gf_product_form,
    gf_shift,
    series_coeffs,
    u_reversed,
)
from bratteli.spectral import (
    count_spectral,
    empirical_rate,
    growth_rate,
    residue_decomposition,
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_count_basic():
    code, out, err = run(["count", "--k", "3", "--i", "1", "--j", "11"])
    assert (code, out, err) == (0, "89\n", "")


def test_count_unreachable_is_zero_not_error():
    # too high, and, past dyck's 26-step cap, too high or of the wrong parity
    for backend in ("dp", "matrix", "dyck", "gf", "spectral"):
        for i, j in ((5, 7), (5, 30), (1, 30)):
            code, out, _ = run(["count", "--k", "2", "--i", str(i), "--j", str(j),
                                "--backend", backend])
            assert (code, out) == (0, "0\n"), (backend, i, j)


def test_count_backends_agree_on_spot():
    outs = set()
    for backend in ("dp", "matrix", "dyck", "gf", "spectral"):
        code, out, _ = run(["count", "--k", "4", "--i", "2", "--j", "14", "--backend", backend])
        assert code == 0
        outs.add(out)
    assert outs == {"729\n"}  # 3**6


def test_count_huge_value_prints_exact_decimal():
    code, out, _ = run(["count", "--k", "2", "--i", "0", "--j", "200", "--backend", "gf"])
    assert code == 0
    assert out.strip() == str(2 ** 99)
    assert len(out.strip()) == 30


def test_gf_count_keeps_a_window_of_the_series():
    import tracemalloc
    for k in (0, 1, 2, 5, 12):
        for j in (0, 1, 7, 40, 399, 400):
            for i in range(min(k, j) + 2):
                assert cli.count_via("gf", k, i, j) == count_dp(k, i, j), (k, i, j)
    # the whole series to j = 20000 at level 2 peaks at about 7 MB of coefficients; the window
    # holds two of at most 1.3 kB each
    tracemalloc.start()
    try:
        assert cli.count_via("gf", 2, 0, 20000) == 2 ** 9999
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_count_negative_rejected_usage():
    code, _, _ = run(["count", "--k", "-1", "--i", "0", "--j", "4"])
    assert code == 2
    code, _, _ = run(["count", "--k", "2", "--i", "0"])
    assert code == 2


# the calls in each backend that allocate by level: dp's columns, the matrix power and
# verify's rows of powers, the enumerator's tally and verify's tallies of one enumeration,
# spectral's angle table and the gf fraction
LEVEL_CALLS = {
    "dp": [(diagram, "dp_columns")],
    "matrix": [(cli, "adjacency_power_row"), (cli, "adjacency_power_rows")],
    "dyck": [(dyck, "endpoint_counts"), (dyck, "endpoint_tallies")],
    "spectral": [(spectral, "_angles")],
    "gf": [(cli, "gf_closed_form")],
}


@pytest.mark.parametrize("backend", list(cli.BACKENDS))
@pytest.mark.parametrize("j", [0, 1, 5, 12])
def test_count_via_clamps_k_to_j(monkeypatch, backend, j):
    # D_k(i, j) = D_j(i, j) once k >= j.  An unclamped k = 10**6 would take
    # the matrix backend 8 TB, so the guard fails the test before that.
    def guard(inner, real):
        def guarded(level, *rest):
            assert level <= j, f"{backend}: {inner} asked at level {level} for {j} steps"
            return real(level, *rest)

        def guarded_columns(k, jmax, *rest):
            # dp_columns takes the unclamped k and clamps its band itself
            for col in real(k, jmax, *rest):
                assert len(col) <= j + 1, f"dp: a column of {len(col)} heights for {j} steps"
                yield col

        return guarded_columns if backend == "dp" else guarded

    wrappers = {}
    for module, inner in LEVEL_CALLS[backend]:
        wrappers[inner] = guard(inner, getattr(module, inner))
        monkeypatch.setattr(module, inner, wrappers[inner])
    for i in range(j + 2):
        assert cli.count_via(backend, 10**6, i, j) == count_dp(j, i, j), (i, j)
    # verify's sweeps run at level min(k, jmax) too; they call the names cli imported
    for inner, wrapper in wrappers.items():
        if hasattr(cli, inner):
            monkeypatch.setattr(cli, inner, wrapper)
    argv = ["verify", "--kmax", "40", "--jmax", str(j), "--backends", "dp,dyck,gf,spectral,matrix",
            "--jobs", "1"]
    assert run(argv)[0] == 0


@pytest.mark.parametrize("backend", list(cli.BACKENDS))
def test_count_via_answers_levels_0_and_1_without_a_backend(monkeypatch, backend):
    # every count at levels 0 and 1 is 0 or 1, however long the path: no backend runs, so a j
    # past dyck's cap, spectral's precision or any column's budget is answered at once
    def refuse(*args):
        raise AssertionError(f"{backend} ran at level 0 or 1")

    for module, inner in LEVEL_CALLS[backend]:
        monkeypatch.setattr(module, inner, refuse)
    assert cli.count_via(backend, 1, 0, 10**11) == 1
    assert cli.count_via(backend, 1, 1, 10**11 + 1) == 1
    assert cli.count_via(backend, 1, 1, 10**11) == 0  # wrong parity
    assert cli.count_via(backend, 0, 0, 10**11) == 0  # level 0 has no arcs
    assert cli.count_via(backend, 0, 0, 0) == cli.count_via(backend, 10**6, 0, 0) == 1
    assert cli.count_via(backend, 10**6, 1, 1) == 1
    assert cli.count_via(backend, 10**6, 0, 1) == cli.count_via(backend, 10**6, 2, 1) == 0


@pytest.mark.parametrize(
    "module, inner, count",
    [(cli, "adjacency_power_row", partial(cli.count_via, "matrix")),
     (dyck, "endpoint_counts", enumerate_count),
     (spectral, "_angles", count_spectral)],
    ids=["matrix", "dyck", "spectral"],
)
@pytest.mark.parametrize("j", [0, 1, 5, 12])
def test_count_functions_run_at_level_min_k_j(monkeypatch, module, inner, count, j):
    # the count functions clamp k themselves; the guard fails the test
    # before an unclamped k = 10**6 could allocate anything
    real = getattr(module, inner)

    def guarded(level, *rest):
        assert level <= j, f"{inner} asked at level {level} for {j} steps"
        return real(level, *rest)

    monkeypatch.setattr(module, inner, guarded)
    for i in range(j + 2):
        assert count(10**6, i, j) == count_dp(j, i, j), (i, j)


BAD_INPUTS = [(True, 0, 0), (2, False, 2), (2, 0, 2.0), (1.0, 0, 0), (2.0, 0, 2),
              (-1, 0, 0), (2, -1, 1), (2, 0, -2)]
COUNTERS = {
    **{f"count_via:{b}": partial(cli.count_via, b) for b in cli.BACKENDS},
    "count_dp": count_dp,
    # the matrix count keeps the ids it had as a library function; it is now reached through
    # the registry, so its contract is count_via's
    "count_matrix_power": partial(cli.count_via, "matrix"),
    "enumerate_count": enumerate_count,
    "count_spectral": count_spectral,
    "closed_form": closed_form,
}


@pytest.mark.parametrize("name", list(COUNTERS))
@pytest.mark.parametrize("args", BAD_INPUTS, ids=repr)
def test_count_functions_share_one_input_contract(name, args):
    # bools, floats and negatives are ValueErrors everywhere
    with pytest.raises(ValueError):
        COUNTERS[name](*args)


@pytest.mark.parametrize("backend", list(cli.BACKENDS))
@pytest.mark.parametrize("args", [(True, 4), (2.0, 4), (-1, 4), (3, -1), (3, False)], ids=repr)
def test_sweeps_share_one_input_contract(backend, args):
    # a sweep clamps its level to min(k, jmax), which must not let a bad jmax through, and its
    # admission refuses what the sweep refuses
    with pytest.raises(ValueError):
        cli.BACKENDS[backend].sweep(*args)
    with pytest.raises(ValueError):
        cli.BACKENDS[backend].admit(*args)


@pytest.mark.parametrize("args", BAD_INPUTS, ids=repr)
def test_spectral_functions_share_one_input_contract(args):
    # the one bad value of each triple, in every integer argument
    bad = next(v for v in args if type(v) is not int or v < 0)
    calls = [
        lambda: residue_decomposition(bad, 0),
        lambda: residue_decomposition(3, bad),
        lambda: growth_rate(bad),
        lambda: empirical_rate(bad, 0, 10),
        lambda: empirical_rate(3, bad, 10),
        lambda: empirical_rate(3, 1, bad),
        # and a precision must be positive: bits=0 once gave growth_rate(3) as 1.0
        lambda: residue_decomposition(3, 0, bits=bad),
        lambda: residue_decomposition(3, 0, bits=0),
        lambda: growth_rate(3, bits=bad),
        lambda: growth_rate(3, bits=0),
        lambda: empirical_rate(3, 1, 10, bits=bad),
        lambda: empirical_rate(3, 1, 10, bits=0),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("args", BAD_INPUTS, ids=repr)
def test_closed_form_functions_share_one_input_contract(args):
    # the one bad value of each triple, in every integer argument
    bad = next(v for v in args if type(v) is not int or v < 0)
    calls = [
        lambda: count_unbounded(bad, 4),
        lambda: count_unbounded(0, bad),
        lambda: catalan(bad),
        lambda: gf_closed_form(bad, 0),
        lambda: gf_closed_form(3, bad),
        lambda: gf_product_form(bad, 0),
        lambda: gf_product_form(3, bad),
        lambda: _check_height(bad, 0),
        lambda: _check_height(3, bad),
        lambda: list(iter_paths(bad, 3)),
        lambda: list(iter_paths(2, bad)),
        lambda: factorize("ud", bad),
        lambda: chebyshev_u(bad),
        lambda: u_reversed(bad),
        lambda: bounded_dyck_gf(bad),
        lambda: series_coeffs(GF_ONE, bad),
        lambda: gf_shift(GF_ONE, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_count_dyck_cap_is_domain_error():
    code, _, err = run(["count", "--k", "2", "--i", "0", "--j", "30", "--backend", "dyck"])
    assert code == 2
    assert "error" in err


def test_auto_backend_choices():
    code, out, err = run(
        ["count", "--k", "2", "--i", "0", "--j", "8", "--backend", "auto", "--paranoid", "--verbose"]
    )
    assert (code, out) == (0, "8\n")
    assert "backend: dyck" in err
    code, out, err = run(
        ["count", "--k", "2", "--i", "0", "--j", "150", "--backend", "auto", "--verbose"]
    )
    assert (code, out.strip()) == (0, str(2 ** 74))
    assert "backend: matrix" in err
    code, out, err = run(
        ["count", "--k", "3", "--i", "1", "--j", "7", "--backend", "auto", "--verbose"]
    )
    assert (code, out) == (0, "13\n")
    assert "backend: dp" in err


def test_counts_past_the_digit_limit_print_in_full():
    # 5,718 digits: past the 4300 that Python allows int -> str by default
    code, out, err = run(["count", "--k", "10", "--i", "0", "--j", "20000"])
    assert (code, err) == (0, "")
    assert out == f"{count_dp(10, 0, 20000)}\n"


# the benchmark's six deep query points, then a grid across the dp/matrix
# crossover (j = level**2, up to level 64) with unreachable heights among it
AUTO_POINTS = [(3, 0, 1880), (5, 4, 9208), (8, 8, 652), (15, 4, 3192), (27, 21, 1107),
               (48, 20, 5422)] + [
    (k, i, j)
    for k, js in [(0, (0, 1)), (1, (0, 1, 2)), (2, (3, 4)), (9, (80, 81)),
                  (10, (99, 100, 3000)), (40, (14, 1599, 1600)), (64, (4095, 4096)),
                  (65, (4225, 5000)), (10**6, (0, 14, 99))]
    for j in js
    for i in sorted({0, 1, min(k, j) // 2, min(k, j), k + 1})
]


def test_auto_never_picks_spectral_and_counts_exactly():
    picked = set()
    for k, i, j in AUTO_POINTS:
        code, out, err = run(
            ["count", "--k", str(k), "--i", str(i), "--j", str(j), "--backend", "auto", "--verbose"]
        )
        backend = err.removeprefix("backend: ").rstrip("\n")
        assert backend in ("dp", "matrix"), (k, i, j, err)
        assert (code, out) == (0, f"{count_dp(k, i, j)}\n"), (k, i, j)
        picked.add(backend)
    assert picked == {"dp", "matrix"}


# modules that only some commands need: mpmath (spectral, residues, rate),
# json (table --format json writes its text directly) and the process pool
# (verify --jobs > 1), and modules that no command needs: dataclasses and
# the inspect it imports
HEAVY_MODULES = ("mpmath", "json", "concurrent.futures.process", "dataclasses", "inspect")


def _heavy_modules_loaded(argvs: list) -> list:
    """The HEAVY_MODULES that running main on each argv in a fresh interpreter imports."""
    code = (
        "import contextlib, io, sys\n"
        f"before = {{m for m in {HEAVY_MODULES!r} if m in sys.modules}}\n"
        "from bratteli.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules and m not in before))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(bratteli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return ast.literal_eval(proc.stdout)


def test_cheap_commands_import_no_heavy_module():
    argvs = [
        ["count", "--k", "3", "--i", "1", "--j", "11"],
        ["count", "--k", "3", "--i", "1", "--j", "401", "--backend", "auto"],
        ["count", "--k", "40", "--i", "2", "--j", "400", "--backend", "auto"],
        ["count", "--k", "4", "--i", "2", "--j", "40", "--backend", "dp"],
        ["count", "--k", "4", "--i", "2", "--j", "40", "--backend", "matrix"],
        ["gf", "--k", "5", "--i", "0", "--even"],
        ["table", "--k", "3", "--jmax", "9", "--format", "json"],
        ["count", "--k", "4", "--i", "2", "--j", "40", "--backend", "spectral"],
        ["verify", "--kmax", "3", "--jmax", "10", "--jobs", "1"],
        ["verify", "--kmax", "6", "--jmax", "200", "--jobs", "2"],  # too little work for a pool
    ]
    assert _heavy_modules_loaded(argvs) == []
    assert _heavy_modules_loaded([["residues", "--k", "3", "--i", "1"]]) == ["mpmath"]


def test_table_csv():
    code, out, _ = run(["table", "--k", "2", "--jmax", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,i,count"
    assert lines[1] == "0,0,1"
    assert len(lines) == 1 + 7  # one data row per diagram vertex
    pairs = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert pairs == sorted(pairs)  # sorted by (j, i)


def test_table_json_round_trip():
    code, out, _ = run(["table", "--k", "3", "--jmax", "9", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 3 and data["jmax"] == 9
    assert all(isinstance(e["count"], str) for e in data["entries"])
    parsed = {(e["i"], e["j"]): int(e["count"]) for e in data["entries"]}
    assert parsed == build_table(3, 9).entries


# (0, 15) and (1, 12): the width is jmax's digits, not the counts'; (5, 0): heights above jmax
TABLE_SHAPES = [(0, 0), (0, 6), (1, 1), (3, 9), (12, 40), (40, 12), (2, 300), (0, 15), (1, 12),
                (5, 0)]


def _vertex_order(table):
    return sorted(table.entries, key=lambda key: (key[1], key[0]))


@pytest.mark.parametrize("k, jmax", TABLE_SHAPES)
def test_table_json_is_json_dumps_layout(k, jmax):
    table = build_table(k, jmax)
    entries = [
        {"i": i, "j": j, "count": str(table.entries[(i, j)])} for (i, j) in _vertex_order(table)
    ]
    want = json.dumps({"k": k, "jmax": jmax, "entries": entries}) + "\n"
    assert cli.table_to_json(table) == want


@pytest.mark.parametrize("k, jmax", TABLE_SHAPES)
def test_table_csv_matches_vertex_lookup(k, jmax):
    # the reference reads the vertex mapping, not the columns the CLI writes from
    table = build_table(k, jmax)
    rows = [f"{j},{i},{table.entries[(i, j)]}\n" for (i, j) in _vertex_order(table)]
    assert cli.table_to_csv(table) == "".join(["j,i,count\n", *rows])


@pytest.mark.parametrize("k, jmax", TABLE_SHAPES)
def test_table_pretty_matches_vertex_lookup(k, jmax):
    # the reference looks every cell up in the vertex mapping
    table = build_table(k, jmax)
    width = max(len(str(max(table.entries.values()))), len(str(jmax)))
    lines = []
    for i in range(k, -1, -1):
        cells = [str(table.entries[(i, j)]).rjust(width) if (i, j) in table.entries else " " * width
                 for j in range(jmax + 1)]
        lines.append(f"{i:>3} | " + " ".join(cells).rstrip())
    lines.append("----+-" + "-" * ((width + 1) * (jmax + 1) - 1))
    lines.append("  j | " + " ".join(str(j).rjust(width) for j in range(jmax + 1)))
    assert cli.table_to_pretty(table) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("write, bound", [(cli.table_to_csv, 1.6), (cli.table_to_json, 1.6),
                                          (cli.table_to_pretty, 1.3)], ids=["csv", "json", "pretty"])
def test_table_writers_hold_one_copy_of_their_text(write, bound):
    # the template, the tuple of counts and the text, but no str of every count besides; for
    # int columns and for the table command's Decimal ones alike
    import tracemalloc
    for table in (build_table(60, 600), cli._decimal_table(60, 600)):
        tracemalloc.start()
        try:
            text = write(table)
            assert tracemalloc.get_traced_memory()[1] < bound * len(text)
        finally:
            tracemalloc.stop()


def test_table_digits_are_exact_under_any_caller_context():
    # a caller's 5-digit context would round every count past 99999; the table builds its
    # Decimal columns in a context of its own and leaves the caller's as it was
    import decimal
    with decimal.localcontext() as caller:
        caller.prec = 5
        code, out, err = run(["table", "--k", "60", "--jmax", "300"])
        assert decimal.getcontext().prec == 5
    assert (code, err) == (0, "")
    exact = out == cli.table_to_csv(build_table(60, 300))  # a failing == of the texts diffs slowly
    assert exact
    columns = cli._decimal_table(60, 300).columns
    assert {type(count) for col in columns for count in col} == {decimal.Decimal, int}
    assert columns == build_table(60, 300).columns


def test_table_is_written_in_pieces_of_64_kib(monkeypatch):
    # a write below glibc's 128 KiB mmap threshold reuses the heap instead of mapping anew
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert cli.main(["table", "--k", "60", "--jmax", "300", "--format", "pretty"]) == 0
    text = cli.table_to_pretty(build_table(60, 300))
    assert len(text) > 1 << 17 and max(map(len, writes)) <= 1 << 16
    joined = "".join(writes) == text  # a failing == of the texts diffs slowly
    assert joined


def test_table_writers_leave_the_vertex_mapping_unbuilt():
    table = build_table(12, 40)
    for write in (cli.table_to_csv, cli.table_to_json, cli.table_to_pretty):
        write(table)
    assert "entries" not in vars(table)
    assert table.entries is table.entries and len(table.entries) == table_size(12, 40)


def test_table_pretty_plain_text(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(["table", "--k", "3", "--jmax", "7", "--format", "pretty"])
    assert code == 0
    assert "\x1b" not in out  # no colour codes, NO_COLOR or not
    assert "j |" in out
    assert "13" in out  # D(1, 7)


def test_table_pretty_layout_has_a_budget():
    # one row per height up to k: k = 10**9 would be 10**9 lines, so it is refused
    code, out, err = run(["table", "--k", "1000000000", "--jmax", "0", "--format", "pretty"])
    assert (code, out) == (2, "")
    assert err == (
        "error: pretty table for k=1000000000, jmax=0 needs 1000000001 cells,"
        " budget is 1000000\n"
    )
    with pytest.raises(TableBudgetError):
        cli.table_to_pretty(build_table(1_000_000, 0))
    assert run(["table", "--k", "1000000000", "--jmax", "0", "--format", "csv"]) == (
        0, "j,i,count\n0,0,1\n", "")


def test_table_budget_counts_bits(monkeypatch):
    # 900,001 entries fit the entry budget, but counts of up to sqrt(2)**600000,
    # 300,002 bits each, would take about 17 GB: refused before any column is built
    def no_columns(k, jmax):
        raise AssertionError(f"dp_columns({k}, {jmax}) built past the budget")

    monkeypatch.setattr(diagram, "dp_columns", no_columns)
    assert run(["table", "--k", "2", "--jmax", "600000"]) == (2, "", (
        "error: table for k=2, jmax=600000 needs up to 270002100002 bits of counts,"
        " budget is 4096000000\n"))
    with pytest.raises(TableBudgetError):
        build_table(2, 600000)
    monkeypatch.undo()
    # every count at level 1 is 0 or 1, so each vertex is charged 2 bits, not jmax
    code, out, err = run(["table", "--k", "1", "--jmax", "70000"])
    assert (code, err, out.count("\n")) == (0, "", 70002)


def test_gf_output():
    code, out, _ = run(["gf", "--k", "5", "--i", "0", "--even"])
    assert code == 0
    assert "offset: 0" in out
    assert "num: 1 -4 3" in out
    assert "den: 1 -5 6 -1" in out
    assert "recurrence: a_m = 5a_{m-1} - 6a_{m-2} + a_{m-3}" in out
    assert "initial: 1 1 2" in out

    code, out, _ = run(["gf", "--k", "3", "--i", "1"])
    assert code == 0
    assert "num: 0 1 0 -1\n" in out
    assert "den: 1 0 -3 0 1\n" in out
    assert "recurrence: a_m = 3a_{m-2} - a_{m-4}" in out
    assert "initial: 0 1 0 2" in out

    code, out, _ = run(["gf", "--k", "2", "--i", "1", "--even"])
    assert code == 0
    assert "offset: 1" in out

    assert run(["gf", "--k", "2", "--i", "3"])[0] == 2


def test_gf_is_admitted_before_expanding(monkeypatch):
    # (k // 2 + 1) * (k + 2) products for the recurrence's initial terms, at most 3 * 10**6
    reached = []
    monkeypatch.setattr(cli, "gf_closed_form", lambda k, i: reached.append(k) or GF_ONE)
    assert run(["gf", "--k", "2448", "--i", "0"]) == (
        2, "", "error: gf for k=2448 needs 3001250 products, budget is 3000000\n")
    assert reached == []
    assert run(["gf", "--k", "2447", "--i", "0"])[0] == 0 and reached == [2447]


def test_residues_weights_sum_to_one():
    code, out, _ = run(["residues", "--k", "1", "--i", "0", "--bits", "96"])
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")]
    assert len(rows) == 2
    assert [row[0] for row in rows] == ["1", "2"]
    with mpmath.workprec(96):
        total = sum(mpmath.mpf(row[1]) for row in rows)
        assert abs(total - 1) < mpmath.mpf(10) ** -20


def test_residues_print_exact_zero_poles_and_held_digits():
    # k = 4: the pole at theta = pi/2 is exactly 0
    code, out, _ = run(["residues", "--k", "4", "--i", "2"])
    assert code == 0
    assert out.split("\n")[2].split()[2] == "0.0"
    # 20 bits hold 5 digits, so the weight 1/2 prints as 0.5
    code, out, _ = run(["residues", "--k", "1", "--i", "0", "--bits", "20"])
    assert code == 0
    assert [row.split()[1] for row in out.strip().split("\n")] == ["0.5", "0.5"]


def test_rate_output():
    code, out, _ = run(["rate", "--k", "3", "--digits", "10"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "exact 1.618033989"
    assert lines[1].startswith("empirical 1.618033989")
    assert lines[2].startswith("diff ")

    code, out, _ = run(["rate", "--k", "0"])
    assert code == 0
    assert "empirical undefined" in out


def test_rate_says_why_the_empirical_rate_is_undefined():
    # D_3(0, 0) = 1, so the counts do not vanish: jmax = 1 leaves one usable length
    code, out, _ = run(["rate", "--k", "3", "--i", "0", "--jmax", "1"])
    assert code == 0
    assert out == ("exact 1.61803398875\n"
                   "empirical undefined (jmax too small: need at least two usable lengths)\n")
    for argv in (["rate", "--k", "0"], ["rate", "--k", "3", "--i", "5"]):
        code, out, _ = run(argv)
        assert code == 0 and out.endswith("\nempirical undefined (counts vanish)\n"), argv


def test_precision_is_admitted_up_to_max_bits(monkeypatch):
    # residues' --bits and rate's 4 * --digits are refused past MAX_BITS before any mpmath work
    monkeypatch.setattr(cli, "MAX_BITS", 256)
    monkeypatch.setattr(cli, "residue_decomposition", None)
    monkeypatch.setattr(cli, "growth_rate", None)
    assert run(["residues", "--k", "3", "--i", "1", "--bits", "257"]) == (
        2, "", "error: residues for k=3 need 257 bits, budget is 256\n")
    assert run(["rate", "--k", "3", "--digits", "65"]) == (
        2, "", "error: rate to 65 digits needs 260 bits, budget is 256\n")
    monkeypatch.undo()
    # the largest precision admitted at the real bound
    code, out, _ = run(["rate", "--k", "0", "--digits", "16384"])
    assert code == 0 and out.startswith("exact 0.0\n")
    monkeypatch.setattr(cli, "MAX_BITS", 256)
    assert run(["residues", "--k", "3", "--i", "1", "--bits", "256"])[0] == 0
    assert run(["rate", "--k", "3", "--digits", "64"])[0] == 0


def test_argument_with_too_many_digits_is_refused_briefly():
    # past int()'s default limit of 4300 digits, whatever limit an earlier main left set; a
    # value that did parse would count 0 at once (i + j odd), so no variant can hang
    ones = "1" * 5000
    for argv in (["count", "--k", ones, "--i", "0", "--j", "1"],
                 ["count", "--k", "1", "--i", "0", "--j", ones]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024 and "not an integer" not in err
        assert "has 5000 digits, more than the 4300 allowed" in err
    assert run(["count", "--k", "1", "--i", "0", "--j", "1" * 4300]) == (0, "0\n", "")


def test_verify_ok_and_deterministic():
    argv = ["verify", "--kmax", "3", "--jmax", "12", "--jobs", "1"]
    code, out, _ = run(argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[:3] == [
        "dp vs matrix: ok (63 queries)",
        "dp vs gf: ok (63 queries)",
        "dp vs spectral: ok (63 queries)",
    ]
    assert lines[-1] == "all backends agree (kmax=3, jmax=12)"
    assert run(argv) == (code, out, "")


def test_verify_parallel_output_identical(monkeypatch, tmp_path):
    # with no work threshold even this verify takes the pool; each level's comparison writes
    # the id of the process it ran in, and forked workers inherit the patched function
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 0)
    real, log = cli.compare_backends, tmp_path / "pids"

    def compare(k, sweeps):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(k, sweeps)

    monkeypatch.setattr(cli, "compare_backends", compare)
    serial = run(["verify", "--kmax", "4", "--jmax", "10", "--jobs", "1"])
    assert log.read_text().split() == [str(os.getpid())] * 5
    log.unlink()
    parallel = run(["verify", "--kmax", "4", "--jmax", "10", "--jobs", "3"])
    pids = log.read_text().split()
    assert len(pids) == 5 and str(os.getpid()) not in pids  # every level ran in a worker
    assert serial == parallel
    assert serial[0] == 0


def _levels(kmax, jmax):
    return [table_size(k, jmax) for k in range(min(kmax, jmax) + 1)]


def test_verify_pools_only_work_that_pays_for_it(monkeypatch):
    # the estimate alone decides, from the admitted table sizes: no level is swept here
    default, five = ("dp", "matrix", "gf", "spectral"), ("dp", "matrix", "gf", "spectral", "dyck")
    workers = cli._verify_workers
    assert workers(2, _levels(30, 300), 300, default) == 2
    assert workers(3, _levels(30, 300), 300, default) == 3
    assert workers(1, _levels(30, 300), 300, default) == 1
    # dyck's enumeration is most of the work of both: their vertex terms alone are 4.3e4 and
    # 3.1e4.  At (26, 22) the serial run is about as fast as the pool, at (26, 24) slower
    assert workers(2, _levels(26, 24), 24, ("dp", "dyck")) == 2
    assert workers(2, _levels(26, 22), 22, ("dp", "dyck")) == 1
    # the default backends at (20, 200), 298,595 units, pool: there the pool was as fast or faster
    assert workers(2, _levels(20, 200), 200, default) == 2
    assert workers(2, _levels(12, 60), 60, default) == 1
    assert workers(2, _levels(8, 20), 20, five) == 1
    # one level, or one job, runs serially whatever the work
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 0)
    assert workers(2, _levels(0, 4), 4, default) == workers(1, _levels(2, 4), 4, default) == 1


def test_verify_all_five_backends():
    code, out, _ = run(
        ["verify", "--kmax", "3", "--jmax", "10", "--jobs", "1",
         "--backends", "dp,dyck,gf,spectral,matrix"]
    )
    assert code == 0
    assert out.count(": ok (") == 4


def test_verify_flag_validation():
    assert run(["verify", "--kmax", "2", "--jmax", "30", "--backends", "dp,dyck"])[0] == 2
    assert run(["verify", "--kmax", "2", "--jmax", "4", "--backends", "dp"])[0] == 2
    assert run(["verify", "--kmax", "2", "--jmax", "4", "--backends", "dp,nope"])[0] == 2
    assert run(["verify", "--kmax", "2", "--jmax", "4", "--backends", "dp,dp"])[0] == 2


def _patch_sweep(monkeypatch, backend, sweep):
    monkeypatch.setitem(cli.BACKENDS, backend, cli.BACKENDS[backend]._replace(sweep=sweep))


def test_verify_reports_first_mismatch(monkeypatch):
    # level 0 has the vertices (0, 0) and (0, 2), with 1 and 0 paths; matrix disagrees at the second
    _patch_sweep(monkeypatch, "matrix", lambda k, jmax: [[1], [0], [7]])
    code, out, _ = run(["verify", "--kmax", "0", "--jmax", "2", "--jobs", "1",
                        "--backends", "dp,matrix"])
    assert code == 1
    assert "MISMATCH at k=0 i=0 j=2: dp=0 matrix=7" in out
    assert "verification failed" in out


def test_verify_sweeps_each_level_once(monkeypatch):
    # a level above jmax sweeps what level jmax sweeps, so it is counted, not run:
    # 2 + 3 + 4 queries for levels 0..2, then 4 for each of the 99,998 levels above
    real = cli._verify_task

    def below_jmax(task):
        k, jmax, _ = task
        assert k <= jmax, f"level {k} swept for jmax={jmax}"
        return real(task)

    monkeypatch.setattr(cli, "_verify_task", below_jmax)
    code, out, _ = run(["verify", "--kmax", "100000", "--jmax", "2", "--jobs", "1"])
    assert code == 0
    assert out.split("\n")[0] == "dp vs matrix: ok (400001 queries)"


def test_compare_backends_orders_mismatches_canonically(monkeypatch):
    # columns to length 2; gf differs from dp at level 2 and, at level 1, at
    # (i, j) = (1, 1) and (0, 2): the first mismatch is the lowest k, then
    # the lowest (j, i).  Only vertices are compared, so matrix's 3 at level
    # 0's (0, 1) is not, and every vertex counts as a query (2 + 3 + 4)
    gf = {2: [[5, 0, 0], [0, 1, 0], [1, 0, 1]], 1: [[1, 0], [0, 9], [8, 0]], 0: [[1], [0], [0]]}
    matrix = {2: [[1, 0, 0], [0, 1, 0], [1, 0, 1]], 1: [[1, 0], [0, 1], [1, 0]], 0: [[1], [3], [0]]}
    _patch_sweep(monkeypatch, "gf", lambda k, jmax: gf[k])
    _patch_sweep(monkeypatch, "matrix", lambda k, jmax: matrix[k])
    calls, real = [], cli.compare_backends
    monkeypatch.setattr(cli, "compare_backends", lambda k, s: calls.append(k) or real(k, s))
    code, out, _ = run(["verify", "--kmax", "2", "--jmax", "2", "--jobs", "1",
                        "--backends", "dp,gf,matrix"])
    assert code == 1
    assert out == ("dp vs gf: MISMATCH at k=1 i=1 j=1: dp=1 gf=9\n"
                   "dp vs matrix: ok (9 queries)\n"
                   "verification failed (kmax=2, jmax=2)\n")
    assert calls == [0, 1, 2]  # looked up on cli at call time, once per level


def test_verify_mismatch_at_two_levels_is_the_same_for_any_jobs(monkeypatch):
    # gf is wrong at level 3, (i, j) = (1, 3), and at level 2, (2, 6): the
    # lower level wins although its vertex comes later in (j, i)
    def bad_gf(k, jmax):
        columns = build_table(k, jmax).columns
        if k in (2, 3):
            i, j = (2, 6) if k == 2 else (1, 3)
            columns[j][i] += 1
        return columns

    _patch_sweep(monkeypatch, "gf", bad_gf)
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 0)  # too little work for the pool otherwise
    argv = ["verify", "--kmax", "5", "--jmax", "8", "--backends", "dp,gf,spectral"]
    serial = run(argv + ["--jobs", "1"])
    assert serial == run(argv + ["--jobs", "2"])  # workers are forked with the patched table
    code, out, err = serial
    assert (code, err) == (1, "")
    assert out == ("dp vs gf: MISMATCH at k=2 i=2 j=6: dp=4 gf=5\n"
                   "dp vs spectral: ok (83 queries)\n"
                   "verification failed (kmax=5, jmax=8)\n")


def _no_sweeps(monkeypatch):
    for name in cli.BACKENDS:
        def sweep(k, jmax, name=name):
            raise AssertionError(f"{name} swept level {k} for jmax={jmax} past a refusal")

        _patch_sweep(monkeypatch, name, sweep)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("backends", ["gf,dp", "dp,gf", "gf,matrix"])
def test_verify_refuses_a_table_over_budget_before_any_level(monkeypatch, backends, jobs):
    # every level's table is admitted in k order before the first runs, so level 2's counts of
    # up to sqrt(2)**400000 are refused whatever the backends' order, dp or not, and the pool
    _no_sweeps(monkeypatch)
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 0)
    argv = ["verify", "--kmax", "2", "--jmax", "400000", "--backends", backends, "--jobs", jobs]
    assert run(argv) == (2, "", (
        "error: table for k=2, jmax=400000 needs up to 120001400002 bits of counts,"
        " budget is 4096000000\n"))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv, loser, err", [
    # every level's table is admitted before any backend's sweep, so dyck's cap comes second
    (["--kmax", "3000", "--jmax", "3000", "--backends", "dp,dyck"], "dyck",
     "error: table for k=763, jmax=3000 needs 1000840 entries, budget is 1000000\n"),
    (["--kmax", "2", "--jmax", "400000"], "spectral",
     "error: table for k=2, jmax=400000 needs up to 120001400002 bits of counts,"
     " budget is 4096000000\n"),
], ids=["table-dyck", "table-spectral"])
def test_verify_refusal_precedence(monkeypatch, argv, loser, err, jobs):
    # each argv trips two refusals: the one printed, and the loser's at level kmax
    with pytest.raises((ValueError, TableBudgetError)):
        cli.BACKENDS[loser].admit(int(argv[1]), int(argv[3]))
    _no_sweeps(monkeypatch)
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 0)
    assert run(["verify", *argv, "--jobs", jobs]) == (2, "", err)


def test_verify_names_no_backend():
    # verify reaches each backend's sweep and refusal through its registry entry, so no
    # backend-specific case can sit in the verify code itself
    import inspect
    for func in (cli._cmd_verify, cli._verify_task):
        source = inspect.getsource(func)
        for name in cli.BACKENDS:
            assert f'"{name}"' not in source and f"'{name}'" not in source, (func.__name__, name)


# the call that does the work in each backend's sweep, after its admission: matrix's level call,
# adjacency_power_rows, admits itself, so its first step stands in for it
SWEEP_WORK = {
    "dp": (diagram, "dp_columns"),
    "matrix": (diagram, "_one_step"),
    "dyck": (cli, "endpoint_tallies"),
    "spectral": (spectral, "_angles"),
    "gf": (cli, "gf_closed_form"),
}


@pytest.mark.parametrize("backend", list(cli.BACKENDS))
def test_every_sweep_raises_its_admission(monkeypatch, backend):
    # called directly at a shape its admit refuses, a sweep raises the same refusal before any
    # work: that raises here, so a sweep that skips its admission fails at once
    def refuse(*args):
        raise AssertionError(f"{backend} swept past its admission")

    monkeypatch.setattr(*SWEEP_WORK[backend], refuse)
    errors, entry = (ValueError, TableBudgetError), cli.BACKENDS[backend]
    for k, jmax in ((2, 30), (3000, 3000), (2, 400000)):  # the first shape admit refuses
        try:
            entry.admit(k, jmax)
        except errors as exc:
            refusal = str(exc)
            break
    with pytest.raises(errors) as swept:
        entry.sweep(k, jmax)
    assert str(swept.value) == refusal, (k, jmax)
    with pytest.raises(AssertionError, match="past its admission"):
        entry.sweep(2, 4)  # an admitted sweep reaches the patched work


@pytest.mark.parametrize("backend", list(cli.BACKENDS))
def test_every_sweep_runs_at_level_min_k_jmax(backend):
    # called directly with k far above jmax, a sweep stops at height jmax, as dp does
    sweep = cli.BACKENDS[backend].sweep(300, 6)
    assert len(sweep) == 7 and max(map(len, sweep)) <= 7
    for j, col in enumerate(diagram.dp_columns(300, 6)):
        for i in diagram.vertex_heights(300, j):
            assert sweep[j][i] == col[i], (i, j)


def test_verify_task_returns_mismatches_not_columns():
    import pickle
    pairs = cli._verify_task((8, 100, ("dp", "matrix", "gf", "spectral")))
    assert pairs == [None, None, None]
    assert len(pickle.dumps(pairs)) < 1024


def test_residues_refuse_more_terms_than_a_table(monkeypatch):
    def no_angles(k, bits):
        raise AssertionError(f"angle table built for k={k}")

    monkeypatch.setattr(spectral, "_angles", no_angles)
    code, out, err = run(["residues", "--k", "1000000000", "--i", "0"])
    assert (code, out) == (2, "")
    assert err == "error: residues for k=1000000000 need 1000000001 terms, budget is 1000000\n"
    with pytest.raises(TableBudgetError):
        residue_decomposition(diagram.MAX_ENTRIES, 0)


def test_usage_errors():
    assert run(["count", "--k", "2", "--i", "0", "--j", "4", "--backend", "bogus"])[0] == 2
    assert run(["nonsense"])[0] == 2
    assert run([])[0] == 2
    assert run(["--help"])[0] == 0
    assert run(["residues", "--k", "2", "--i", "5"])[0] == 2


def test_count_determinism():
    a = run(["count", "--k", "5", "--i", "3", "--j", "25", "--backend", "spectral"])
    b = run(["count", "--k", "5", "--i", "3", "--j", "25", "--backend", "spectral"])
    assert a == b and a[0] == 0
