import math

import pytest

from bratteli.closed_forms import (
    catalan,
    closed_form,
    count_unbounded,
    fibonacci,
)
from bratteli.diagram import count_dp
from bratteli.dyck import enumerate_count
from bratteli.genfunc import decimate, gf_closed_form, make_gf, recurrence_from_gf


def test_count_unbounded_anchors():
    assert count_unbounded(0, 6) == 5
    assert count_unbounded(2, 4) == 3
    assert count_unbounded(1, 1) == 1
    assert count_unbounded(3, 4) == 0
    assert count_unbounded(5, 3) == 0
    with pytest.raises(ValueError):
        count_unbounded(-1, 4)


def test_count_unbounded_against_enumeration():
    # a height bound of j can never bind a length-j walk
    for j in range(0, 13):
        for i in range(0, j + 1):
            assert count_unbounded(i, j) == enumerate_count(j if j else 1, i, j), (i, j)


def test_count_unbounded_divisibility():
    # (i+1) * C(j+1, (j-i)/2) is always divisible by j+1
    for j in range(0, 201):
        for i in range(j % 2, j + 1, 2):
            assert (i + 1) * math.comb(j + 1, (j - i) // 2) % (j + 1) == 0, (i, j)


def test_catalan_values_and_convolution():
    assert catalan(0) == 1
    assert catalan(5) == 42
    assert catalan(10) == 16796
    conv = [1]
    for n in range(1, 31):
        conv.append(sum(conv[t] * conv[n - 1 - t] for t in range(n)))
    for n in range(31):
        assert catalan(n) == conv[n]
        assert catalan(n) == count_unbounded(0, 2 * n)


def test_bound_stabilizes():
    for j in range(0, 25):
        for i in range(j % 2, j + 1, 2):
            want = count_unbounded(i, j)
            for k in (j, j + 1, j + 6):
                assert count_dp(k, i, j) == want, (k, i, j)


def test_fibonacci():
    assert fibonacci(-1) == 1
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1
    assert fibonacci(2) == 1
    assert fibonacci(10) == 55
    with pytest.raises(ValueError):
        fibonacci(-2)
    a, b = 1, 0
    for m in range(0, 30):
        assert fibonacci(m) == b, m
        a, b = b, a + b


def test_closed_form_anchors():
    assert closed_form(4, 3, 5) == 4
    assert closed_form(3, 2, 8) == 21
    assert closed_form(5, 0, 8) == 14
    assert closed_form(2, 1, 9) == 16
    assert closed_form(1, 0, 40) == 1
    assert closed_form(2, 0, 0) == 1  # the one k=2 value the doubling law misses


def test_closed_form_unreachable_and_domain():
    assert closed_form(3, 1, 2) == 0
    assert closed_form(2, 5, 7) == 0
    assert closed_form(4, 3, 1) == 0
    with pytest.raises(ValueError):
        closed_form(6, 0, 0)
    with pytest.raises(ValueError):
        closed_form(0, 0, 0)
    with pytest.raises(ValueError):
        closed_form(3, -1, 1)
    with pytest.raises(ValueError):  # k = infinity is count_unbounded's
        closed_form(math.inf, 0, 6)


def test_closed_form_matches_dp():
    for k in (1, 2, 3, 4, 5):
        for j in range(0, 41):
            for i in range(0, k + 1):
                assert closed_form(k, i, j) == count_dp(k, i, j), (k, i, j)


def test_k3_fibonacci_rows():
    # odd lengths at height 1 carry the odd-indexed Fibonacci numbers
    for j in range(0, 15):
        assert closed_form(3, 1, 2 * j + 1) == fibonacci(2 * j + 1)
        assert count_dp(3, 1, 2 * j) == 0
        assert closed_form(3, 0, 2 * j) == fibonacci(2 * j - 1)


def test_k5_sequence_bridges_to_gf():
    g, offset = decimate(gf_closed_form(5, 0))
    assert offset == 0
    assert g == make_gf([1, -4, 3], [1, -5, 6, -1])
    terms = recurrence_from_gf(g).terms(30)
    for m in range(31):
        assert closed_form(5, 0, 2 * m) == terms[m], m
