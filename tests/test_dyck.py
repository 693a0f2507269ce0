import pytest
from hypothesis import given, settings, strategies as st

from bratteli.diagram import count_dp, dp_columns
from bratteli.dyck import (
    endpoint_counts,
    endpoint_tallies,
    enumerate_count,
    factorize,
    heights,
    iter_paths,
)


def test_enumerate_anchors():
    assert enumerate_count(3, 2, 8) == 21
    assert enumerate_count(1, 1, 7) == 1
    assert enumerate_count(0, 0, 0) == 1
    assert enumerate_count(0, 0, 2) == 0
    assert enumerate_count(2, 5, 7) == 0
    assert enumerate_count(4, 1, 4) == 0  # parity


def test_enumerate_matches_dp():
    for k in range(0, 6):
        for j in range(0, 13):
            for i in range(0, k + 1):
                assert enumerate_count(k, i, j) == count_dp(k, i, j), (k, i, j)


def test_endpoint_counts_row():
    # verify's one enumeration to depth 18 tallies what an enumeration to each depth does; a
    # row holds the heights up to min(k, jmax), all that a path of jmax steps can reach
    for k in range(0, 10):
        tallies = endpoint_tallies(k, 18)
        assert len(tallies) == 19
        for j in range(0, 19):
            assert tallies[j] == [count_dp(k, i, j) for i in range(k + 1)], (k, j)
            assert endpoint_counts(k, j) == tallies[j][:min(k, j) + 1], (k, j)


def test_an_unused_bound_k_allocates_nothing():
    import tracemalloc
    # two steps reach three heights whatever k, so the rows hold three entries, not k + 1
    tracemalloc.start()
    row = endpoint_counts(10**6, 2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert row == [1, 0, 1]
    assert peak < 1_000_000


def test_enumeration_visits_every_path_once():
    # the frontier's tally at depth j is the tally of the paths iter_paths lists one by one,
    # and it holds as many nodes as there are paths of every length up to j
    for k in range(0, 6):
        for j in range(0, 13):
            tallies = endpoint_tallies(k, j)
            ends = [0] * (min(k, j) + 1)
            for path in iter_paths(k, j):
                ends[heights(path)[-1]] += 1
            assert tallies[j] == ends, (k, j)
            nodes = sum(map(sum, tallies))
            assert nodes == sum(map(sum, dp_columns(k, j))), (k, j)
            assert nodes == sum(1 for d in range(j + 1) for _ in iter_paths(k, d)), (k, j)


def test_long_thin_trees_do_not_recurse():
    # levels 0 and 1 have at most one path of each length; a recursive walk to depth 5000
    # raised RecursionError.  Level 2 doubles its paths every two steps, so its tree is
    # enumerated only as deep as 2**21 paths of the last length
    for k, jmax in ((0, 5000), (1, 5000), (2, 42)):
        padded = [col + [0] * (k + 1 - len(col)) for col in dp_columns(k, jmax)]
        assert endpoint_tallies(k, jmax) == padded, k


def test_a_level_above_a_byte_is_refused_before_any_work():
    # the level is min(k, jmax): a high k with a short jmax is still enumerated
    assert endpoint_tallies(300, 4)[4][:5] == [2, 0, 3, 0, 1]
    for k, jmax in ((256, 256), (300, 10**9), (10**9, 300)):
        with pytest.raises(ValueError) as refused:
            endpoint_tallies(k, jmax)
        assert str(refused.value) == (f"level {min(k, jmax)} is above 255:"
                                      " its tree has more than 2**255 paths")


def test_length_cap():
    with pytest.raises(ValueError):
        enumerate_count(2, 1, 27)  # a vertex: an unreachable one is 0 at any length


def test_iter_paths_order_and_counts():
    assert list(iter_paths(2, 2)) == ["uu", "ud"]
    assert list(iter_paths(1, 2)) == ["ud"]
    assert list(iter_paths(0, 0)) == [""]
    assert list(iter_paths(0, 3)) == []
    assert next(iter_paths(40, 40)) == "u" * 40  # lazy: the tree has 2**40 leaves
    for k in range(0, 4):
        for j in range(0, 10):
            paths = list(iter_paths(k, j))
            assert len(paths) == sum(endpoint_counts(k, j))
            # deterministic order: up-steps explored before down-steps
            assert paths == sorted(paths, key=lambda p: [c == "d" for c in p])
            assert len(set(paths)) == len(paths)


def test_factorize_examples():
    assert factorize("uduu", 2) == ["ud", "", ""]
    assert factorize("uudd", 2) == ["uudd"]
    assert factorize("", 3) == [""]
    assert factorize("uu", 3) == ["", "", ""]


def test_factorize_rejects_bad_paths():
    with pytest.raises(ValueError):
        factorize("udd", 2)  # below the axis
    with pytest.raises(ValueError):
        factorize("uu", 1)  # over the top
    with pytest.raises(ValueError):
        factorize("ux", 2)  # not a step


def _check_roundtrip(path, k):
    factors = factorize(path, k)
    assert "u".join(factors) == path
    i = heights(path)[-1]
    assert len(factors) == i + 1
    for s, piece in enumerate(factors, start=1):
        prof = heights(piece)
        assert prof[-1] == 0  # each factor is a closed excursion
        assert min(prof) == 0
        assert max(prof) <= k + 1 - s  # the bound tightens with each level


def test_factorize_roundtrip_exhaustive():
    for k in range(0, 5):
        for j in range(0, 11):
            for path in iter_paths(k, j):
                _check_roundtrip(path, k)


@st.composite
def bounded_path(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    length = draw(st.integers(min_value=0, max_value=24))
    path = []
    h = 0
    for _ in range(length):
        options = []
        if h < k:
            options.append("u")
        if h > 0:
            options.append("d")
        step = draw(st.sampled_from(options))
        h += 1 if step == "u" else -1
        path.append(step)
    return "".join(path), k


@given(bounded_path())
@settings(max_examples=300, deadline=None)
def test_factorize_roundtrip_random(path_and_k):
    path, k = path_and_k
    _check_roundtrip(path, k)
