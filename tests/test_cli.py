import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import mpmath
import pytest

from bratteli import cli, diagram, dyck, spectral
from bratteli.closed_forms import closed_form
from bratteli.diagram import TableBudgetError, build_table, count_dp, count_matrix_power
from bratteli.dyck import enumerate_count
from bratteli.spectral import count_spectral, empirical_rate, growth_rate, residue_decomposition


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_count_basic():
    code, out, err = run(["count", "--k", "3", "--i", "1", "--j", "11"])
    assert (code, out, err) == (0, "89\n", "")


def test_count_unreachable_is_zero_not_error():
    for backend in ("dp", "matrix", "dyck", "gf", "spectral"):
        code, out, _ = run(["count", "--k", "2", "--i", "5", "--j", "7", "--backend", backend])
        assert (code, out) == (0, "0\n"), backend


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


def test_count_negative_rejected_usage():
    code, _, _ = run(["count", "--k", "-1", "--i", "0", "--j", "4"])
    assert code == 2
    code, _, _ = run(["count", "--k", "2", "--i", "0"])
    assert code == 2


@pytest.mark.parametrize("backend", list(cli.BACKENDS))
@pytest.mark.parametrize("j", [0, 1, 5, 12])
def test_count_via_clamps_k_to_j(monkeypatch, backend, j):
    # D_k(i, j) = D_j(i, j) once k >= j.  An unclamped k = 10**6 would take
    # the matrix backend 8 TB, so the guard fails the test before that.
    count, sweep = cli.BACKENDS[backend]

    def guarded(level, i, j):
        assert level <= j, f"{backend} asked at level {level} for {j} steps"
        return count(level, i, j)

    monkeypatch.setitem(cli.BACKENDS, backend, (guarded, sweep))
    for i in range(j + 2):
        assert cli.count_via(backend, 10**6, i, j) == count_dp(j, i, j), (i, j)


@pytest.mark.parametrize(
    "module, inner, count",
    [(diagram, "adjacency_power_row", count_matrix_power),
     (dyck, "endpoint_counts", enumerate_count),
     (spectral, "_angles", count_spectral)],
    ids=["matrix", "dyck", "spectral"],
)
@pytest.mark.parametrize("j", [0, 1, 5, 12])
def test_count_functions_run_at_level_min_k_j(monkeypatch, module, inner, count, j):
    # the library functions clamp k themselves; the guard fails the test
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
    "count_matrix_power": count_matrix_power,
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
    assert "backend: spectral" in err
    code, out, err = run(
        ["count", "--k", "2", "--i", "0", "--j", "8", "--backend", "auto", "--verbose"]
    )
    assert "backend: dp" in err


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


def test_residues_weights_sum_to_one():
    code, out, _ = run(["residues", "--k", "1", "--i", "0", "--bits", "96"])
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")]
    assert len(rows) == 2
    assert [row[0] for row in rows] == ["1", "2"]
    with mpmath.workprec(96):
        total = sum(mpmath.mpf(row[1]) for row in rows)
        assert abs(total - 1) < mpmath.mpf(10) ** -20


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


def test_verify_parallel_output_identical():
    serial = run(["verify", "--kmax", "4", "--jmax", "10", "--jobs", "1"])
    parallel = run(["verify", "--kmax", "4", "--jmax", "10", "--jobs", "3"])
    assert serial == parallel
    assert serial[0] == 0


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


def test_verify_reports_first_mismatch(monkeypatch):
    def fake_task(task):
        k, jmax, backends = task
        good = {(0, 0): 1, (1, 1): 1, (0, 2): 1}
        bad = dict(good)
        bad[(0, 2)] = 7
        return k, {"dp": good, "matrix": bad}

    monkeypatch.setattr(cli, "_verify_task", fake_task)
    code, out, _ = run(["verify", "--kmax", "0", "--jmax", "2", "--jobs", "1",
                        "--backends", "dp,matrix"])
    assert code == 1
    assert "MISMATCH at k=0 i=0 j=2: dp=1 matrix=7" in out
    assert "verification failed" in out


def test_compare_backends_orders_mismatches_canonically():
    results = [
        (1, {"dp": {(1, 1): 1, (1, 3): 2}, "gf": {(1, 1): 9, (1, 3): 2}}),
        (0, {"dp": {(0, 0): 1}, "gf": {(0, 0): 1}}),
    ]
    pairs = cli.compare_backends(results, ("dp", "gf"))
    assert pairs == [("dp", "gf", 3, (1, 1, 1, 1, 9))]


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
