import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bratteli.diagram import count_dp
from bratteli.dyck import enumerate_count
from bratteli.genfunc import (
    GF_ONE,
    GF_ZERO,
    bounded_dyck_gf,
    chebyshev_u,
    decimate,
    gf_closed_form,
    gf_inflate,
    gf_inv,
    gf_mul,
    gf_product_form,
    gf_shift,
    gf_sub,
    make_gf,
    poly_content,
    poly_divexact,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_shift,
    recurrence_from_gf,
    series_coeffs,
    u_reversed,
)


def test_chebyshev_values():
    assert chebyshev_u(0) == [1]
    assert chebyshev_u(1) == [0, 2]
    assert chebyshev_u(2) == [-1, 0, 4]
    assert chebyshev_u(3) == [0, -4, 0, 8]


def test_chebyshev_recurrence():
    for r in range(1, 64):
        lhs = chebyshev_u(r + 1)
        rhs = [0] + [2 * c for c in chebyshev_u(r)]
        for t, c in enumerate(chebyshev_u(r - 1)):
            rhs[t] -= c
        while rhs and rhs[-1] == 0:
            rhs.pop()
        assert lhs == rhs, r


def test_chebyshev_trig_identity():
    x = math.cos(math.pi / 7)
    want = math.sin(6 * math.pi / 7) / math.sin(math.pi / 7)
    assert abs(poly_eval(chebyshev_u(5), x) - want) < 1e-12


def test_u_reversed_values():
    assert u_reversed(0) == [1]
    assert u_reversed(1) == [1]
    assert u_reversed(6) == [1, 0, -5, 0, 6, 0, -1]
    # binomial form of the coefficients
    for m in range(0, 40):
        poly = u_reversed(m)
        assert poly[0] == 1
        for t in range(0, m // 2 + 1):
            assert poly[2 * t] == (-1) ** t * math.comb(m - t, t)


def test_u_reversed_three_term():
    for m in range(1, 64):
        want = [a - b for a, b in zip_pad(u_reversed(m), [0, 0] + u_reversed(m - 1))]
        while want and want[-1] == 0:
            want.pop()
        assert u_reversed(m + 1) == want


def zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def test_u_reversed_is_reversed_chebyshev():
    # exact rational identity x**m U_m(1/(2x)) at x = 1/3
    x = Fraction(1, 3)
    for m in (0, 1, 5, 9):
        lhs = poly_eval(u_reversed(m), x)
        rhs = x ** m * poly_eval(chebyshev_u(m), 1 / (2 * x))
        assert lhs == rhs


def test_poly_gcd_and_divexact():
    assert poly_gcd([-1, 0, 1], [-2, 1, 1]) == [-1, 1]  # x**2-1 vs (x-1)(x+2)
    assert poly_gcd([2, 2], [4]) == [2]
    assert poly_gcd([], [0, -3]) == [0, 3]
    # untrimmed or empty arguments: trimmed first, positive leading coefficient
    assert poly_gcd([], [0, -1, 0, 0, 0]) == [0, 1]
    assert poly_gcd([1, 0], []) == [1]
    assert poly_gcd([], []) == []
    assert poly_divexact([], [1, 1]) == []
    assert poly_divexact([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ValueError):
        poly_divexact([1, 0, 1], [1, 1])


def test_make_gf_normalization():
    g = make_gf([1], [-1, 2])
    assert g.num == (-1,) and g.den == (1, -2)
    assert make_gf([2, 2], [2]) == make_gf([1, 1], [1])
    with pytest.raises(ValueError):
        make_gf([1], [])
    with pytest.raises(ValueError):
        make_gf([1], [0, 1])
    with pytest.raises(ValueError):
        make_gf([1], [2, 1])
    assert make_gf([], [5, 3]) == GF_ZERO
    for den in ([0, 1], [-2], [0, 0, -3]):  # a zero numerator reduces whatever den(0) is
        assert make_gf([], den) == GF_ZERO


_POLYS = st.lists(st.integers(-40, 40), min_size=1, max_size=6).filter(lambda p: p[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(a=_POLYS, b=_POLYS, f=_POLYS, unit=st.sampled_from([1, -1]), content=st.integers(1, 60))
def test_make_gf_leaves_no_common_factor(a, b, f, unit, content):
    # a f / b f with f of any content: poly_gcd carries the contents' gcd, so dividing by it alone
    # leaves coprime contents.  b(0) = +-1 keeps the reduced den(0) a unit
    b = [unit, *b]
    f = [content * c for c in f]
    g = make_gf(poly_mul(a, f), poly_mul(b, f))
    num, den = list(g.num), list(g.den)
    assert math.gcd(poly_content(num), poly_content(den)) == 1
    assert poly_gcd(num, den) == [1]
    assert den[0] == 1
    assert poly_mul(num, b) == poly_mul(den, a)  # the same series as a / b


def test_bounded_dyck_gf_values():
    assert bounded_dyck_gf(0) == GF_ZERO
    assert bounded_dyck_gf(1) == GF_ONE
    assert bounded_dyck_gf(2) == make_gf([1], [1, -1])
    assert bounded_dyck_gf(5) == make_gf([1, -3, 1], [1, -4, 3])


def test_bounded_dyck_gf_counts_bounded_dyck_paths():
    # coefficient m counts Dyck paths of length 2m with height at most k-1
    for k in range(1, 6):
        coeffs = series_coeffs(bounded_dyck_gf(k), 8)
        for m in range(9):
            assert coeffs[m] == enumerate_count(k - 1, 0, 2 * m), (k, m)


def test_continued_fraction_law():
    for k in range(0, 33):
        lhs = bounded_dyck_gf(k + 1)
        rhs = gf_inv(gf_sub(GF_ONE, gf_shift(bounded_dyck_gf(k), 1)))
        assert lhs == rhs, k


def test_gf_anchors():
    assert gf_product_form(2, 0) == make_gf([1, 0, -1], [1, 0, -2])
    assert gf_product_form(1, 1) == make_gf([0, 1], [1, 0, -1])
    assert gf_closed_form(3, 3) == make_gf([0, 0, 0, 1], [1, 0, -3, 0, 1])
    assert gf_closed_form(5, 0) == make_gf([1, 0, -4, 0, 3], [1, 0, -5, 0, 6, 0, -1])
    # a case where numerator and denominator genuinely share a factor
    assert gf_closed_form(4, 2) == make_gf([0, 0, 1], [1, 0, -3])
    assert gf_closed_form(0, 0) == GF_ONE
    with pytest.raises(ValueError):
        gf_closed_form(2, 3)
    with pytest.raises(ValueError):
        gf_product_form(2, 3)


def test_product_equals_closed():
    for k in range(0, 11):
        for i in range(0, k + 1):
            assert gf_product_form(k, i) == gf_closed_form(k, i), (k, i)
    # the gcd identity reduces the closed form exactly as the PRS gcd of make_gf does
    for k in range(0, 40):
        for i in range(0, k + 1):
            prs = make_gf(poly_shift(u_reversed(k - i), i), u_reversed(k + 1))
            assert gf_closed_form(k, i) == prs, (k, i)


def test_series_anchors():
    assert series_coeffs(gf_closed_form(2, 1), 7) == [0, 1, 0, 2, 0, 4, 0, 8]
    assert series_coeffs(gf_closed_form(3, 0), 10) == [1, 0, 1, 0, 2, 0, 5, 0, 13, 0, 34]
    assert series_coeffs(GF_ZERO, 4) == [0, 0, 0, 0, 0]


def test_series_matches_dp():
    for k in range(0, 9):
        for i in range(0, k + 1):
            coeffs = series_coeffs(gf_closed_form(k, i), 40, nonnegative=True)
            for j in range(41):
                assert coeffs[j] == count_dp(k, i, j), (k, i, j)


def test_series_negative_guard():
    g = make_gf([1, -1], [1])
    assert series_coeffs(g, 2) == [1, -1, 0]
    with pytest.raises(ValueError):
        series_coeffs(g, 2, nonnegative=True)


def test_gf_algebra_round_trips():
    g = gf_closed_form(4, 0)
    assert gf_mul(g, gf_inv(g)) == GF_ONE
    assert gf_sub(g, g) == GF_ZERO
    assert gf_inflate(make_gf([1], [1, -1])) == make_gf([1], [1, 0, -1])
    with pytest.raises(ValueError):
        gf_inv(gf_closed_form(4, 2))  # numerator divisible by x: no series inverse


def test_decimate():
    g, p = decimate(gf_closed_form(5, 0))
    assert p == 0
    assert g == make_gf([1, -4, 3], [1, -5, 6, -1])
    g, p = decimate(gf_closed_form(2, 1))
    assert p == 1
    assert g == make_gf([1], [1, -2])
    assert decimate(GF_ZERO) == (GF_ZERO, 0)
    with pytest.raises(ValueError):
        decimate(make_gf([1, 1], [1]))  # parities mixed
    with pytest.raises(ValueError):
        decimate(make_gf([1], [1, -1]))  # odd denominator


def test_decimate_halves_are_already_reduced():
    # decimate skips make_gf: the halves of a reduced fraction are reduced
    for k in range(41):
        for i in range(k + 1):
            g = gf_closed_form(k, i)
            h, p = decimate(g)
            assert h == make_gf(list(g.num[p::2]), list(g.den[0::2])), (k, i)


def test_recurrence_extraction():
    rec = recurrence_from_gf(make_gf([1, -1], [1, -2]))
    assert rec.order == 1 and rec.coeffs == (2,)
    assert rec.initial == (1, 1)  # the tail law only holds past the numerator degree
    assert rec.terms(6) == [1, 1, 2, 4, 8, 16, 32]

    g, _ = decimate(gf_closed_form(5, 0))
    rec = recurrence_from_gf(g)
    assert (rec.order, rec.coeffs, rec.initial) == (3, (5, -6, 1), (1, 1, 2))
    assert rec.terms(6) == [1, 1, 2, 5, 14, 42, 131]

    assert recurrence_from_gf(GF_ONE).terms(3) == [1, 0, 0, 0]


def test_recurrence_replay_matches_series():
    for k in range(0, 9):
        for i in range(0, k + 1):
            g = gf_closed_form(k, i)
            assert recurrence_from_gf(g).terms(30) == series_coeffs(g, 30), (k, i)
    # numerator degree equal to denominator degree still replays exactly
    g = gf_closed_form(4, 4)
    assert recurrence_from_gf(g).terms(25) == series_coeffs(g, 25)


def test_denominator_vanishes_at_pole_reciprocals():
    for k in range(0, 11):
        poly = u_reversed(k + 1)
        with mpmath.workprec(128):
            scale = sum(abs(c) for c in poly)
            for r in range(1, k + 2):
                if 2 * r == k + 2:
                    continue  # zero eigenvalue: no finite reciprocal
                x = 1 / (2 * mpmath.cos(mpmath.pi * r / (k + 2)))
                bound = mpmath.mpf(2) ** -100 * scale * max(1, abs(x)) ** (len(poly) - 1)
                assert abs(poly_eval(poly, x)) < bound, (k, r)
