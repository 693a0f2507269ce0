"""Tests of the benchmark's own oracle and generators: python3 -m pytest bench -q"""

import math

import oracle
import workloads


def test_level_two_counts_are_powers_of_two():
    # heights 0..2: every even-length walk ends at 0 or 2, 2**(m-1) ways each
    for m in range(1, 40):
        assert oracle.count(2, 0, 2 * m) == 2 ** (m - 1)
        assert oracle.count(2, 1, 2 * m - 1) == 2 ** (m - 1)


def test_level_three_counts_are_fibonacci_numbers():
    fib = [0, 1]
    while len(fib) < 80:
        fib.append(fib[-1] + fib[-2])
    for j in range(1, 70, 2):
        assert oracle.count(3, 1, j) == fib[j]


def test_unbounded_axis_counts_are_catalan_numbers():
    for n in range(30):
        catalan = math.comb(2 * n, n) // (n + 1)
        for k in (2 * n, 2 * n + 5, 10**6):
            assert oracle.count(k, 0, 2 * n) == catalan


def test_unreachable_targets_count_zero():
    assert oracle.count(2, 5, 7) == 0
    assert oracle.count(5, 0, 7) == 0
    assert oracle.count(3, 4, 2) == 0


def test_vertex_and_prefix_totals():
    assert oracle.vertices(2, 4) == 7  # the README's seven-row table
    assert oracle.vertices(0, 3) == 2
    assert oracle.prefixes(1, 3) == 4  # u, ud, udu plus the empty walk
    assert oracle.prefixes(30, 10) == sum(math.comb(m, m // 2) for m in range(11))


def test_count_check_rejects_a_wrong_answer():
    assert oracle.check_count("89\n", 3, 1, 11) is None
    assert oracle.check_count("90\n", 3, 1, 11)
    assert oracle.check_count("8.9e1\n", 3, 1, 11)


def test_table_check_parses_all_three_formats():
    ref = oracle.TableRef(2, 4)
    csv = b"j,i,count\n0,0,1\n1,1,1\n2,0,1\n2,2,1\n3,1,2\n4,0,2\n4,2,2\n"
    assert ref.check(csv, "csv") is None
    assert ref.check(csv.replace(b"4,2,2", b"4,2,3"), "csv")
    assert ref.check(csv[:-6], "csv")
    entries = ", ".join(
        f'{{"i": {i}, "j": {j}, "count": "{c}"}}'
        for i, j, c in [(0, 0, 1), (1, 1, 1), (0, 2, 1), (2, 2, 1), (1, 3, 2), (0, 4, 2), (2, 4, 2)]
    )
    js = f'{{"k": 2, "jmax": 4, "entries": [{entries}]}}\n'.encode()
    assert ref.check(js, "json") is None
    assert ref.check(js.replace(b'"2"}]', b'"4"}]'), "json")
    pretty = (b"  2 |     1   2\n"
              b"  1 |   1   2\n"
              b"  0 | 1   1   2\n"
              b"----+----------\n"
              b"  j | 0 1 2 3 4\n")
    assert ref.check(pretty, "pretty") is None
    assert ref.check(pretty.replace(b"1   2\n  0", b"1   3\n  0"), "pretty")


def test_gf_check_replays_the_recurrence():
    # level 5, height 0: (1 - 4t + 3t^2) / (1 - 5t + 6t^2 - t^3) in t = x**2
    good = ("offset: 0\nnum: 1 -4 3\nden: 1 -5 6 -1\n"
            "recurrence: a_m = 5a_{m-1} - 6a_{m-2} + a_{m-3}\ninitial: 1 1 2\n")
    assert oracle.check_gf(good, 5, 0, True) is None
    assert oracle.check_gf(good.replace("+ a_{m-3}", "+ 2a_{m-3}"), 5, 0, True)
    assert oracle.check_gf(good, 5, 0, False)


def test_verify_check_expects_the_query_totals():
    out = "dp vs gf: ok (7 queries)\nall backends agree (kmax=0, jmax=12)\n"
    assert oracle.check_verify(out, 0, 12, ["dp", "gf"]) is None
    assert oracle.check_verify(out.replace("7", "8"), 0, 12, ["dp", "gf"])


def test_workloads_are_seeded_and_sized_for_a_small_machine():
    for name in ("query", "sweep", "table"):
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)
    ops = workloads.query(3)
    assert 20 <= len(ops) <= 30
    assert all(0 <= op["i"] and op["k"] <= 10**6 for op in ops)
    assert all(op["j"] < 100 for op in ops if op["kind"] in ("small", "paranoid"))
    assert all(op["j"] <= 14 for op in ops if "--paranoid" in op["argv"])
    assert all(op["k"] * op["j"] <= workloads.WIDE_CELLS for op in ops if op["kind"] == "wide")
    for op in workloads.table(3):
        assert oracle.vertices(op["k"], op["jmax"]) <= 100_000
