import mpmath
import pytest

from bratteli import spectral
from bratteli.diagram import build_table, count_dp
from bratteli.genfunc import chebyshev_u, poly_eval
from bratteli.spectral import (
    PrecisionExhaustedError,
    chebyshev_roots,
    count_spectral,
    empirical_rate,
    growth_rate,
    residue_decomposition,
)


def test_roots():
    roots = chebyshev_roots(2, bits=64)
    assert abs(roots[0] - 0.5) < 1e-18
    assert abs(roots[1] + 0.5) < 1e-18
    for m in range(1, 10):
        roots = chebyshev_roots(m, bits=113)
        assert all(a > b for a, b in zip(roots, roots[1:]))  # strictly descending
        poly = chebyshev_u(m)
        with mpmath.workprec(113):
            for x in roots:
                assert abs(poly_eval(poly, x)) < 1e-25


def test_residue_anchor():
    dec = residue_decomposition(1, 0, bits=96)
    (w1, p1), (w2, p2) = dec.terms
    assert abs(w1 / 2 - 0.25) < 1e-25  # the residue itself is 1/4
    assert abs(w2 / 2 - 0.25) < 1e-25
    assert abs(p1 - 1) < 1e-25 and abs(p2 + 1) < 1e-25


def test_residue_partial_fraction_single_point():
    # reconstruct U_2(x)/U_5(x) from the pole expansion at x = 0.1
    k, i = 4, 2
    dec = residue_decomposition(k, i, bits=128)
    with mpmath.workprec(128):
        x = mpmath.mpf(1) / 10
        recon = mpmath.mpf(0)
        for (w, pole) in dec.terms:
            recon += (w / 2) / (x - pole / 2)
        direct = poly_eval(chebyshev_u(k - i), x) / poly_eval(chebyshev_u(k + 1), x)
        assert abs(recon - direct) < mpmath.mpf(10) ** -25


def test_weights_sum_to_length_zero_count():
    with mpmath.workprec(113):
        for k in range(0, 9):
            for i in range(0, k + 1):
                dec = residue_decomposition(k, i, bits=113)
                total = sum(w for (w, _) in dec.terms)
                want = 1 if i == 0 else 0
                assert abs(total - want) < mpmath.mpf(2) ** -80, (k, i)


def test_alternating_signs_and_dominant_pole():
    for k in range(1, 9):
        dec = residue_decomposition(k, 0, bits=64)
        poles = [p for (_, p) in dec.terms]
        lam1 = poles[0]
        assert abs(poles[-1] + lam1) < 1e-15  # the spectrum is symmetric
        for p in poles[1:-1]:
            assert abs(p) < lam1
        for r, (w, p) in enumerate(dec.terms, start=1):
            u = poly_eval(chebyshev_u(k), mpmath.mpf(p) / 2)
            expected_sign = (-1) ** (r + 1) * (1 if u > 0 else -1)
            assert (w > 0) == (expected_sign > 0), (k, r)


def test_residue_domain():
    with pytest.raises(ValueError):
        residue_decomposition(3, 4)
    with pytest.raises(ValueError):
        residue_decomposition(3, -1)


def test_count_spectral_anchors():
    assert count_spectral(2, 1, 7) == 8
    assert count_spectral(3, 0, 10) == 34
    assert count_spectral(5, 0, 12) == 131
    assert count_spectral(9, 0, 1) == 0  # parity: the sum cancels to 0
    assert count_spectral(7, 3, 1) == 0  # shorter than the height
    assert count_spectral(2, 3, 4) == 0  # above the band, as in count_dp
    with pytest.raises(ValueError):
        count_spectral(2, 0, -1)


def test_count_spectral_swept_against_dp():
    for k in range(0, 13):
        rows = build_table(k, 300).entries
        for i in range(0, k + 1):
            for j in range(i, 301, 2):
                assert count_spectral(k, i, j) == rows[(i, j)], (k, i, j)


def test_custom_policy_runs(monkeypatch):
    # a custom ladder (lowest start, lower MAX_BITS) that still leaves room
    # for one doubling changes nothing
    monkeypatch.setattr(spectral, "INITIAL_BITS", 64)
    monkeypatch.setattr(spectral, "MAX_BITS", 1 << 12)
    assert count_spectral(6, 0, 40) == count_dp(6, 0, 40)


def test_precision_exhaustion(monkeypatch):
    # stability needs one doubling; a MAX_BITS below it makes the count refuse
    monkeypatch.setattr(spectral, "MAX_BITS", 96)
    with pytest.raises(PrecisionExhaustedError):
        count_spectral(6, 0, 60)
    # a MAX_BITS below the starting precision refuses before evaluating anything
    monkeypatch.setattr(spectral, "MAX_BITS", 64)
    with pytest.raises(PrecisionExhaustedError, match="never evaluated"):
        count_spectral(6, 0, 60)


def test_growth_rate_values():
    assert abs(growth_rate(1, bits=64) - 1) < 1e-18
    with mpmath.workprec(64):
        assert abs(growth_rate(2, bits=64) - mpmath.sqrt(2)) < mpmath.mpf(2) ** -60
        golden = (1 + mpmath.sqrt(5)) / 2
        assert abs(growth_rate(3, bits=64) - golden) < mpmath.mpf(2) ** -60
    assert abs(growth_rate(0, bits=64)) < 1e-18  # 2 cos(pi/2), up to rounding


def test_empirical_rate_anchors():
    with mpmath.workprec(128):
        assert abs(empirical_rate(2, 0, 40) - mpmath.sqrt(2)) < mpmath.mpf(10) ** -20
    golden = growth_rate(3, bits=128)
    assert abs(empirical_rate(3, 1, 201) - golden) < 1e-8
    assert abs(empirical_rate(5, 0, 200) - growth_rate(5, bits=128)) < 1e-6


def test_empirical_rate_parity_snap():
    # an endpoint parity mismatch silently retreats one step
    assert empirical_rate(3, 1, 200) == empirical_rate(3, 1, 199)


def test_empirical_rate_domain():
    with pytest.raises(ValueError):
        empirical_rate(0, 0, 200)  # all counts beyond j=0 vanish
    with pytest.raises(ValueError):
        empirical_rate(3, 4, 200)  # i beyond the band
    with pytest.raises(ValueError):
        empirical_rate(3, 1, 1)  # nothing to take a ratio of


def test_empirical_rate_monotone_convergence():
    floor = mpmath.mpf(10) ** -25
    for k in range(1, 9):
        rate = growth_rate(k, bits=256)
        burnin = 2 * k + 8
        prev = None
        converged = False
        for j in range(burnin, 81, 2):
            diff = abs(empirical_rate(k, 0, j, bits=256) - rate)
            if converged or diff < floor:
                converged = True
                assert diff < floor, (k, j)
                continue
            if prev is not None:
                assert diff <= prev, (k, j)
            prev = diff
