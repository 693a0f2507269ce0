"""Spectral backend: counts as finite power sums over the adjacency spectrum.

The path graph on heights 0..k has eigenvalues lambda_r = 2 cos(theta_r),
theta_r = r pi / (k+2), for r = 1..k+1, so the count of length-j paths
ending at height i is the exact real number

    sum_r w_r * lambda_r**j,    w_r = 2 sin(theta_r) sin((i+1) theta_r) / (k+2).

This is the Chebyshev weight (-1)**(r+1) U_{k-i}(cos theta_r) sin(theta_r)**2
times 2/(k+2), rewritten by U_m(cos t) = sin((m+1) t) / sin t.  When i + j is
even the terms of r and k+2-r are equal, so the sum is taken over the
r < (k+2)/2 half and doubled.

Evaluated in binary floating point the sum is only close to the true
integer, so one evaluator, called by ``count_spectral`` for one vertex and by
verify's sweep ``spectral_columns`` for whole columns, evaluates it once per
vertex, at a precision where an a priori rounding-error bound keeps it within
1/4 of the count: the nearest integer is certified.  The bound rests on an
angle table whose every sine and cosine is checked against an interval
enclosure.

mpmath supplies the arbitrary-precision reals; everything else is explicit.
It is imported at first use, so ``import bratteli`` stays cheap.
"""

from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .diagram import (_check_budget, _check_height, _check_nonneg, count_dp, is_vertex,
                      vertex_heights)

MAX_BITS = 1 << 16  # count_spectral refuses a length that needs more precision


class PrecisionExhaustedError(ArithmeticError):
    """Raised when no count can be certified within MAX_BITS of precision."""


class SpectralDecomposition(namedtuple("SpectralDecomposition", "k i bits terms")):
    """Weights and poles of the count power sum for one (k, i), at fixed precision.

    ``terms`` is ((weight, pole), ...) for r = 1..k+1, in r order.
    """

    __slots__ = ()


@lru_cache(maxsize=4096)
def _angles(k: int, bits: int) -> tuple:
    # sin(m pi/(k+2)) for m = 0..k+1 and the poles 2 cos(r pi/(k+2)) for r = 1..k+1,
    # evaluated for m <= (k+2)/2 only and mirrored by theta -> pi - theta (the direct
    # value is stored last, so the middle angle keeps its own); each is proven within
    # 2**(4 - bits) of the true value by an mpmath.iv enclosure at the same precision
    import mpmath
    n = k + 2
    sines, cosines = [None] * (n + 1), [None] * (n + 1)
    with mpmath.workprec(bits), mpmath.ctx_mp.PrecisionManager(mpmath.iv, lambda _: bits, None):
        pi, eps = +mpmath.pi, mpmath.ldexp(1, 4 - bits)
        for m in range(n // 2 + 1):
            exact = 2 * m == n  # theta = pi/2 (even k): the pole 0 and the sine 1 need no enclosure
            c, s = (mpmath.mpf(0), mpmath.mpf(1)) if exact else mpmath.cos_sin(pi * m / n)
            # one interval cos_sin (mpmath.iv.cos_sin would run it once for each)
            boxes = () if exact else mpmath.libmp.mpi_cos_sin((mpmath.iv.pi * m / n)._mpi_, bits)
            if not all(abs(mpmath.iv.make_mpf(box) - v) <= eps for box, v in zip(boxes, (c, s))):
                raise PrecisionExhaustedError(f"sin/cos off enclosure at k={k}, {bits} bits")
            sines[n - m], sines[m] = s, s
            cosines[n - m], cosines[m] = -c, c
        poles = tuple(2 * c for c in cosines[1:n])
    return tuple(sines[:n]), poles


def _weights(k: int, i: int, bits: int, count: int) -> list:
    # w_r for r = 1..count, in the caller's working precision: sin((i+1) theta_r) is the table's
    # sine at (i+1) r mod (k+2), negated after an odd number of half-turns (sin(x + pi) = -sin(x))
    sines, n = _angles(k, bits)[0], k + 2
    return [2 * (-1) ** ((i + 1) * r // n) * sines[r] * sines[(i + 1) * r % n] / n
            for r in range(1, count + 1)]


def residue_decomposition(k: int, i: int, bits: int = 113) -> SpectralDecomposition:
    """The exact partial-fraction data behind the power sum, as mpmath reals.

    Requires 0 <= i <= k.  weights w_r are twice the residues of
    U_{k-i}/U_{k+1} at the roots of U_{k+1}; poles are the corresponding
    path-graph eigenvalues 2 cos(r pi/(k+2)).  More than MAX_ENTRIES terms,
    the budget of a table, raise TableBudgetError before anything is computed.
    """
    _check_height(k, i)
    _check_budget(f"residues for k={k} need", k + 1, "terms")
    import mpmath
    with mpmath.workprec(bits):
        terms = tuple(zip(_weights(k, i, bits, k + 1), _angles(k, bits)[1]))
    return SpectralDecomposition(k=k, i=i, bits=bits, terms=terms)


def _bits(j: int) -> int:
    # With u = 2**-bits, the doubled half-spectrum sum is within 2**(j+1) (16 (j+2) + 5) u
    # of the count, under 1/4 (53/256 to first order) from j + bit_length(j) + 8 bits on:
    # - _angles proves each sine and cosine within 16u, so lambda within 32u and, as
    #   |lambda| <= 2, lambda**j within 16 j 2**j u; a weight's two sines add 32u in all;
    # - five roundings of at most u |w| 2**j: two per weight (the product, / (k+2)),
    #   lam ** j (mpmath 1.3's mpf_pow_int keeps 4*bitcount(j)+4 guard bits, rounds
    #   once), the product, and fsum (mpf_sum adds exactly bar terms 2**-2bits below the
    #   running sum, rounds once); sum |w_r| <= 2/pi < 1 over the half spectrum.
    # Rounded up to a multiple of 64, nearby lengths share one angle table.
    return -(-(j + j.bit_length() + 8) // 64) * 64


def _column(k: int, j: int, heights, weights: dict) -> list:
    # the certified counts at the vertices (i, j), i in heights ascending, at level min(k, j);
    # each height's weights are kept in the caller's dict, keyed by (level, i, bits)
    if j == 0 or not heights:  # no vertex, or the empty path: the halved sum drops the pole 0
        return [1] * len(heights)
    bits = _bits(j)
    if bits > MAX_BITS:
        raise PrecisionExhaustedError(
            f"no stable integer for (k={k}, i={heights[0]}, j={j}) within {MAX_BITS} bits"
            " (last residual: never evaluated)"
        )
    import mpmath
    level = min(k, j)
    half = (level + 1) // 2
    with mpmath.workprec(bits):
        powers = [lam ** j for lam in _angles(level, bits)[1][:half]]
        for i in heights:
            if (level, i, bits) not in weights:
                weights[level, i, bits] = _weights(level, i, bits, half)
        return [int(mpmath.nint(2 * mpmath.fsum(map(mul, weights[level, i, bits], powers))))
                for i in heights]


def count_spectral(k: int, i: int, j: int) -> int:
    """Path count via the spectral power sum, evaluated once and certified.

    Runs at level min(k, j), since no path of j steps climbs higher, and at
    about j + log2(j) + 8 bits, where an a priori bound keeps the rounding error
    below 1/4.  Lengths that need more than MAX_BITS (j > 65512) raise
    PrecisionExhaustedError.  Unreachable targets count zero, as in count_dp.
    """
    _check_nonneg(k=k, i=i, j=j)
    return _column(k, j, (i,), {})[0] if is_vertex(k, i, j) else 0


def admit_columns(k: int, jmax: int) -> None:
    """Raise spectral_columns(k, jmax)'s refusal, if any, evaluating nothing: _bits grows with j."""
    first = bisect_right(range(jmax + 1), MAX_BITS, lo=1, key=_bits)
    for j in range(first, min(first + 2, jmax + 1)):  # at level 0 an odd column is empty
        _column(k, j, vertex_heights(k, j), {})  # refuses before evaluating anything


def spectral_columns(k: int, jmax: int) -> list:
    """count_spectral(k, i, j) at every vertex with j <= jmax, in columns of heights 0..min(k, j).

    Each column raises its poles to the j-th power once, each height's weights are computed once
    per level and precision, and admit_columns refuses a length past MAX_BITS before any column.
    """
    _check_nonneg(k=k, jmax=jmax)
    admit_columns(k, jmax)
    columns = [[0] * (min(k, j) + 1) for j in range(jmax + 1)]
    weights = {}
    for j, col in enumerate(columns):
        col[j % 2::2] = _column(k, j, vertex_heights(k, j), weights)  # the heights of column j
    return columns


def growth_rate(k: int, bits: int = 53):
    """Dominant eigenvalue 2 cos(pi / (k+2)): the asymptotic growth per step."""
    _check_nonneg(k=k)
    import mpmath
    with mpmath.workprec(bits):  # at k = 0, 2 cos(pi/2) is 0 exactly, as _angles has it
        return 2 * mpmath.cos(mpmath.pi / (k + 2)) if k else mpmath.mpf(0)


def empirical_rate(k: int, i: int, jmax: int, bits: int = 128):
    """sqrt(D(i, jmax) / D(i, jmax - 2)) as an mpmath real.

    jmax is snapped down one step when i + jmax is odd, since counts of the
    other parity vanish.  Raises ValueError when either count is zero (the
    ratio is then undefined, e.g. i > k or jmax too small).  The default 128
    bits keeps rounding far below the distance to the limit even when the
    ratio has nearly converged.
    """
    _check_nonneg(k=k, i=i, jmax=jmax)
    jm = jmax - (i + jmax) % 2
    if jm < 2:
        raise ValueError("jmax too small: need at least two usable lengths")
    a = count_dp(k, i, jm)
    b = count_dp(k, i, jm - 2)
    if a == 0 or b == 0:
        raise ValueError("counts vanish")
    import mpmath
    with mpmath.workprec(bits):
        return mpmath.sqrt(mpmath.mpf(a) / mpmath.mpf(b))
