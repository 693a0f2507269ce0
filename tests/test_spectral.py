from fractions import Fraction
from functools import lru_cache
from math import floor

import mpmath
import pytest

from bratteli import diagram, spectral
from bratteli.diagram import build_table, count_bits, count_dp, dp_columns, vertex_heights
from bratteli.genfunc import chebyshev_u, poly_eval
from bratteli.spectral import (
    PrecisionExhaustedError,
    count_spectral,
    empirical_rate,
    growth_rate,
    residue_decomposition,
    spectral_columns,
)


def _chebyshev_roots(m, bits):
    # the m roots cos(r pi/(m+1)) of U_m, descending: the poles of level m - 1, halved
    dec = residue_decomposition(m - 1, 0, bits=bits)
    return [mpmath.ldexp(pole, -1) for _, pole in dec.terms]


def test_roots():
    roots = _chebyshev_roots(2, bits=64)
    assert abs(roots[0] - 0.5) < 1e-18
    assert abs(roots[1] + 0.5) < 1e-18
    for m in range(1, 10):
        roots = _chebyshev_roots(m, bits=113)
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


def test_spectral_columns_match_counts_and_dp():
    # verify's sweep, one power per pole and column, against one count per vertex
    for k in range(0, 16):
        columns = spectral_columns(k, 130)
        dp = build_table(k, 130).columns
        assert [len(col) for col in columns] == [min(k, j) + 1 for j in range(131)]
        for j, col in enumerate(columns):
            heights = vertex_heights(k, j)
            for i, count in enumerate(col):
                want = count_spectral(k, i, j) if i in heights else 0
                assert count == want == (dp[j][i] if i in heights else 0), (k, i, j)


def test_count_spectral_at_40000_steps():
    # one evaluation at 20032 bits, from count_bits(2, 40000) = 20001, inside MAX_BITS
    assert count_spectral(2, 0, 40000) == count_dp(2, 0, 40000)


def test_spectral_columns_match_dp_to_level_30():
    # every level of a verify sweep of the levels k <= 30 to length 300
    for k in range(31):
        for j, (col, dp) in enumerate(zip(spectral_columns(k, 300), dp_columns(k, 300))):
            assert col + [0] * (len(dp) - len(col)) == dp, (k, j)  # dp's columns are k + 1 high


@lru_cache(maxsize=None)
def _enclosure(angle: Fraction, bits: int) -> tuple:
    # mpmath.iv enclosures of 2**bits 2 cos(angle pi) and 2**bits sin(angle pi), at the
    # caller's interval precision; angles m/n recur across levels, so each is enclosed once
    iv = mpmath.iv
    boxes = mpmath.libmp.mpi_cos_sin((iv.pi * angle.numerator / angle.denominator)._mpi_, iv.prec)
    return tuple(iv.ldexp(iv.make_mpf(box), bits + e) for box, e in zip(boxes, (1, 0)))


def _off_enclosure(level: int, bits: int) -> list:
    # the angles m whose sine or pole in _angles(level, bits) is more than one unit of 2**-bits
    # from its enclosure; m <= n/2 is enclosed and n - m checked as its mirror (n = level + 2).
    # Every interval operation rounds outward, so an entry that passes is proven
    n = level + 2
    sines, poles = spectral._angles(level, bits)
    poles = (2 << bits, *poles)  # the pole of m = 0, which the table leaves out, is exact
    off = []
    with mpmath.ctx_mp.PrecisionManager(mpmath.iv, lambda _: bits + 8, None):
        for m in range(n // 2 + 1):
            cos, sin = _enclosure(Fraction(m, n), bits)
            for angle, sign in ((m, 1), (n - m, -1))[:2 if m else 1]:
                for got, true in ((sines[angle], sin), (poles[angle], sign * cos)):
                    if not (-1 <= (got - true).a and (got - true).b <= 1):
                        off.append(angle)
    return off


def test_fixed_table_is_within_one_unit(monkeypatch):
    # every sine and pole that the integer counts use, against an interval enclosure
    for bits in (64, 128, 704, 3072):
        for level in range(70):
            assert _off_enclosure(level, bits) == [], (level, bits)
    # a pi 4 units of 2**-bits too high, far beyond the 40 units of 2**-w that the guard
    # allows, puts the poles near pi/2 off by about 4 units
    real = spectral._pi
    monkeypatch.setattr(spectral, "_pi", lambda w: real(w) + (1 << (w - 128 + 2)))
    spectral._angles.cache_clear()
    try:
        assert _off_enclosure(12, 128) != []
    finally:
        spectral._angles.cache_clear()


def _sweep_differs(k, jmax):
    # spectral_columns(k, jmax) against dp at some vertex; dp's columns are min(k, jmax) + 1 high
    columns = zip(spectral_columns(k, jmax), dp_columns(k, jmax))
    return any(col != dp[:len(col)] for col, dp in columns)


def test_weakened_precision_is_caught(monkeypatch):
    # j - 32 bits cannot hold the 86-digit count, so the sweeps against dp
    # would catch a bound that is too weak; short columns keep a double's 53 bits
    monkeypatch.setattr(spectral, "_bits", lambda level, j: max(j - 32, 53))
    assert count_spectral(12, 0, 300) != count_dp(12, 0, 300)
    assert _sweep_differs(12, 300)


def test_bound_leaves_little_slack(monkeypatch):
    # 4 bits under count_bits + bit_length(j), 12 under the proven scale before it is rounded up,
    # a count and a sweep at level 3 already go wrong, and the sweeps against dp catch it
    monkeypatch.setattr(spectral, "_bits",
                        lambda level, j: count_bits(level, j) + j.bit_length() - 4)
    assert count_spectral(3, 0, 60) != count_dp(3, 0, 60)
    assert _sweep_differs(3, 60)


def test_bits_take_the_count_size_and_never_exceed_the_old_bound():
    # count_bits(level, j) <= j, so no scale is above the old level-blind F = j + bit_length(j) + 8
    grid = sorted({*range(0, 300), *range(300, 70001, 997), 65511, 65512, 65536, 70000})
    for level in range(301):
        for j in grid:
            old = -(-(j + j.bit_length() + 8) // 64) * 64
            assert spectral._bits(level, j) <= old, (level, j)
    # levels 0 and 1 have counts of one bit, so their sweeps run at 64 bits at any length
    assert spectral._bits(0, 10**6) == spectral._bits(1, 10**6) == 64
    assert spectral._bits(2, 40000) == 20032 and spectral._bits(5, 65511) < spectral.MAX_BITS


def test_every_table_admitted_sweep_fits_in_max_bits():
    # spectral_columns is admitted as a table, so the largest table admitted at each level,
    # found by bisection, must run within MAX_BITS: the largest scale is 37760 bits, at (3, 54312)
    def largest_admitted(level):
        lo, hi = 0, 2 * diagram.MAX_ENTRIES + 2  # admitted, refused at every level
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                diagram.admit_table(level, mid)
                lo = mid
            except diagram.TableBudgetError:
                hi = mid
        return lo

    for level in (*range(3000), 10**4, 10**5, 10**6):
        jmax = largest_admitted(level)
        assert spectral._bits(level, jmax) <= spectral.MAX_BITS, (level, jmax)


def test_angle_outside_its_enclosure_raises(monkeypatch):
    # a cosine, or a sine, 2**(6 - bits) off its true value is outside the 2**(4 - bits) the
    # bound allows; each is checked against the integer table on its own
    real = mpmath.cos_sin
    for push in ((1, 0), (0, 1)):
        def pushed(x, push=push):
            return tuple(v + p * mpmath.ldexp(1, 6 - mpmath.mp.prec) for v, p in zip(real(x), push))

        monkeypatch.setattr(mpmath, "cos_sin", pushed)
        with pytest.raises(PrecisionExhaustedError, match="enclosure"):
            residue_decomposition(6, 0)


def test_enclosure_check_is_exact():
    # residues compares value 2**scale with a table entry exactly, also where the value has bits
    # below the table's unit, so its verdict is Fraction arithmetic's even at the boundary
    scale, bits = 72, 64
    limit = 2 ** (scale + 4 - bits) - 1
    for exp in (-80, -75, -72, -70):
        for man in (-7, 1, 3, 2**50 + 1):  # each exact in a double
            exact = man * Fraction(2) ** (exp + scale)
            for d in (-limit - 1, -limit, limit, limit + 1, limit + 2):
                unit = floor(exact) + d
                want = abs(exact - unit) <= limit
                assert spectral._within(mpmath.mpf((man, exp)), unit, scale, bits) == want


def test_counts_and_residues_share_one_cleared_table():
    # a caller that clears spectral._angles, as an in-process benchmark does before each op,
    # makes the next count build its table again
    spectral._angles.cache_clear()
    count_spectral(7, 1, 41)
    residue_decomposition(9, 2)
    assert spectral._angles.cache_info().currsize == 2
    spectral._angles.cache_clear()
    count_spectral(7, 1, 41)
    assert spectral._angles.cache_info()[:2] == (0, 1)  # no hit, one miss


def test_precision_exhaustion(monkeypatch):
    # j = 60 needs 128 bits; a MAX_BITS below it makes the count refuse
    monkeypatch.setattr(spectral, "MAX_BITS", 96)
    with pytest.raises(PrecisionExhaustedError):
        count_spectral(6, 0, 60)
    # the refusal comes before the sum is evaluated
    def refuse(*args):
        raise AssertionError("the angle table was built past the refusal")

    monkeypatch.setattr(spectral, "MAX_BITS", 64)
    monkeypatch.setattr(spectral, "_angles", refuse)
    with pytest.raises(PrecisionExhaustedError, match=r"within 64 bits$"):
        count_spectral(6, 0, 60)


def test_growth_rate_values():
    assert abs(growth_rate(1, bits=64) - 1) < 1e-18
    with mpmath.workprec(64):
        assert abs(growth_rate(2, bits=64) - mpmath.sqrt(2)) < mpmath.mpf(2) ** -60
        golden = (1 + mpmath.sqrt(5)) / 2
        assert abs(growth_rate(3, bits=64) - golden) < mpmath.mpf(2) ** -60
    assert growth_rate(0, bits=64) == 0  # 2 cos(pi/2), exactly


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


def test_empirical_rate_walks_the_dp_once(monkeypatch):
    import tracemalloc
    walks, real = [], diagram.dp_columns

    def counted(k, jmax):
        walks.append((k, jmax))
        return real(k, jmax)

    monkeypatch.setattr(diagram, "dp_columns", counted)
    monkeypatch.setattr(spectral, "dp_columns", counted, raising=False)
    # the whole sweep of 2001 columns of 11 counts up to 1970 bits holds about 6 MB
    tracemalloc.start()
    rate = empirical_rate(10, 2, 2000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert walks == [(10, 2000)]
    assert peak < 100_000
    with mpmath.workprec(128):
        assert rate == mpmath.sqrt(mpmath.mpf(count_dp(10, 2, 2000)) / count_dp(10, 2, 1998))
    # both counts come from the last three columns, heights above min(k, jm) reading 0
    for k in range(6):
        for i in range(k + 2):
            for jmax in range(12):
                jm = jmax - (i + jmax) % 2
                a, b = (count_dp(k, i, jm), count_dp(k, i, jm - 2)) if jm >= 2 else (0, 0)
                if a and b:
                    with mpmath.workprec(128):
                        assert empirical_rate(k, i, jmax) == mpmath.sqrt(mpmath.mpf(a) / b)
                else:
                    with pytest.raises(ValueError):
                        empirical_rate(k, i, jmax)


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
