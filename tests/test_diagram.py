from functools import partial

import pytest

from bratteli import cli, diagram
from bratteli.diagram import (
    TableBudgetError,
    adjacency_power_row,
    adjacency_power_rows,
    build_table,
    count_bits,
    count_dp,
    dp_columns,
    is_vertex,
    table_size,
    vertex_heights,
)

from frozen_tables import K2_TABLE, K3_TABLE


def test_small_tables():
    for (i, j), want in K2_TABLE.items():
        assert count_dp(2, i, j) == want
    for (i, j), want in K3_TABLE.items():
        assert count_dp(3, i, j) == want


def test_count_dp_anchors():
    assert count_dp(2, 1, 5) == 4
    assert count_dp(3, 1, 11) == 89
    assert count_dp(4, 2, 8) == 27
    assert count_dp(0, 0, 0) == 1
    assert count_dp(0, 0, 2) == 0  # k = 0 has no arcs at all


def test_unreachable_counts_are_zero():
    assert count_dp(2, 5, 7) == 0  # above the cutoff
    assert count_dp(3, 1, 0) == 0  # longer than the path
    assert count_dp(9, 0, 1) == 0  # wrong parity
    assert count_dp(4, 3, 100) == 0  # parity again


def test_negative_arguments_raise():
    with pytest.raises(ValueError):
        count_dp(-1, 0, 0)
    with pytest.raises(ValueError):
        count_dp(2, -1, 4)
    with pytest.raises(ValueError):
        adjacency_power_row(2, -3)
    with pytest.raises(ValueError):
        cli.count_via("matrix", 2, 0, -3)
    with pytest.raises(ValueError):
        build_table(3, -1)


def test_recurrence_identity():
    # D(i, j) = D(i-1, j-1) + D(i+1, j-1), heights off the band reading 0
    for k in range(0, 7):
        t = build_table(k, 30).entries
        for (i, j), v in t.items():
            if j == 0:
                continue
            left = t.get((i - 1, j - 1), 0)
            right = t.get((i + 1, j - 1), 0)
            assert v == left + right, (k, i, j)


def test_monotone_in_k_and_stabilized():
    for j in range(0, 21):
        for i in range(j % 2, j + 1, 2):
            prev = 0
            for k in range(i, j + 3):
                cur = count_dp(k, i, j)
                assert cur >= prev, (k, i, j)
                prev = cur
            # once k >= j the bound is slack
            assert count_dp(j, i, j) == count_dp(j + 5, i, j)


def test_dp_columns_stop_at_the_reachable_height():
    # k = 10**6, not 10**9: a column of 10**9 heights would exhaust memory
    # before the assertion could fail
    assert list(dp_columns(10**6, 0)) == [[1]]
    assert list(dp_columns(9, 3)) == [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 2, 0, 1]]
    assert list(dp_columns(1, 3)) == [[1, 0], [0, 1], [1, 0], [0, 1]]
    assert list(dp_columns(0, 2)) == [[1], [0], [0]]


def test_build_table_matches_count_dp():
    t = build_table(3, 24)
    assert t.k == 3 and t.jmax == 24
    for (i, j), v in t.entries.items():
        assert v == count_dp(3, i, j)
    # entries exist exactly at vertices
    for j in range(25):
        for i in range(0, 6):
            assert ((i, j) in t.entries) == is_vertex(3, i, j)


def test_table_size_and_budget(monkeypatch):
    # k=2, jmax=4: heights 0 and 2 admit three and two even lengths, height 1
    # two odd ones
    assert table_size(2, 4) == 7
    assert len(build_table(2, 4).entries) == 7
    with monkeypatch.context() as m:
        m.setattr(diagram, "MAX_ENTRIES", 6)
        with pytest.raises(TableBudgetError):
            build_table(2, 4)
    big = table_size(10, 200)
    assert len(build_table(10, 200).entries) == big
    # the closed form against a count over every length
    for k in range(60):
        want = 0
        for jmax in range(200):
            want += len(vertex_heights(k, jmax))
            assert table_size(k, jmax) == want, (k, jmax)
    assert table_size(2, 10**7) == 15000001


def test_count_bits_bound_every_count():
    for k in range(14):
        for j, col in enumerate(dp_columns(k, 300)):
            assert count_bits(k, j) >= max(col).bit_length(), (k, j)
    # the bound is tight to a bit or two: 2**j at level 2 is reached at odd lengths
    assert count_bits(2, 301) == max(map(max, dp_columns(2, 301))).bit_length() + 1 == 152
    # levels 0 and 1 count 0 or 1 paths, however long; the exact ceiling takes a j past floats
    assert count_bits(1, 10**4000) == count_bits(0, 10**4000) == count_bits(10**6, 0) == 1
    assert 10**400 // 2 < count_bits(2, 10**400) < 10**400 // 2 + 10**390
    assert count_bits(2, 3_000_000) <= 4 * diagram.MAX_ENTRIES  # count --backend gf admits it


def test_matrix_power_matches_dp():
    count_matrix = partial(cli.count_via, "matrix")
    assert count_matrix(2, 0, 6) == 4
    assert count_matrix(7, 3, 3) == 1
    assert count_matrix(3, 1, 0) == 0
    assert count_matrix(1, 5, 2) == 0  # i beyond the band
    for k in range(0, 6):
        for j in range(0, 16):
            for i in range(k + 1):
                assert count_matrix(k, i, j) == count_dp(k, i, j), (k, i, j)
    # the fold itself: k = 0, both parities, j < k (zeros above height j) and powers
    # that wrap around the 2(k+2)-cycle; verify's rows step each power from the one before
    for k in range(0, 25):
        rows = adjacency_power_rows(k, 80)
        assert len(rows) == 81
        for j, col in enumerate(dp_columns(k, 80)):
            assert rows[j] == adjacency_power_row(k, j) == col + [0] * (k + 1 - len(col)), (k, j)


def test_matrix_rows_keep_only_the_powers_squared_again():
    import tracemalloc
    # one power of 6 entries is held at a time, 0.32 MB at peak with the rows; keeping all 4001
    # powers peaked at 0.83 MB
    tracemalloc.start()
    rows = adjacency_power_rows(1, 4000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 500_000
    assert rows[3999] == adjacency_power_row(1, 3999) and rows[4000] == adjacency_power_row(1, 4000)


def test_matrix_rows_walk_counts_not_powers_of_two(monkeypatch):
    # the walk starts at the source and its image in the wall -1, so every entry of every power
    # is a count of its length, its negative or 0; folding only at the end, as the single-row
    # power does, grows the entries as 2**j at every level
    widths = []  # of power j, in the step that takes it to power j + 1
    one_step = diagram._one_step

    def measured(c):
        widths.append(max(abs(x).bit_length() for x in c))
        return one_step(c)

    monkeypatch.setattr(diagram, "_one_step", measured)
    for level in range(13):
        widths.clear()
        adjacency_power_rows(level, 200)
        assert len(widths) == 200
        for j, width in enumerate(widths):
            assert width <= count_bits(level, j), (level, j)


def test_matrix_rows_square_each_kept_power_once(monkeypatch):
    squarings = []
    power_step = diagram._power_step

    def counted(c, bit):
        squarings.append(len(c))
        return power_step(c, bit)

    monkeypatch.setattr(diagram, "_power_step", counted)
    for k, jmax in ((0, 0), (0, 1), (3, 7), (5, 40), (8, 61), (12, 200)):
        squarings.clear()
        rows = adjacency_power_rows(k, jmax)
        assert squarings == [], (k, jmax)  # each power is one step from the last, never a square
        assert rows[-1] == adjacency_power_row(k, jmax), (k, jmax)


def test_matrix_power_skips_unreachable_targets(monkeypatch):
    def refuse(k, j):
        raise AssertionError(f"adjacency_power_row({k}, {j}) for an unreachable target")

    monkeypatch.setattr(cli, "adjacency_power_row", refuse)
    assert cli.count_via("matrix", 5, 1, 10000) == 0  # wrong parity
    assert cli.count_via("matrix", 5, 7, 10000) == 0  # above the band
