"""Spectral backend: counts as finite power sums over the adjacency spectrum.

The path graph on heights 0..k has eigenvalues lambda_r = 2 cos(theta_r),
theta_r = r pi / (k+2), for r = 1..k+1, so the count of length-j paths
ending at height i is the exact real number

    sum_r w_r * lambda_r**j,    w_r = 2 sin(theta_r) sin((i+1) theta_r) / (k+2).

This is the Chebyshev weight (-1)**(r+1) U_{k-i}(cos theta_r) sin(theta_r)**2
times 2/(k+2), rewritten by U_m(cos t) = sin((m+1) t) / sin t.  When i + j is
even the terms of r and k+2-r are equal, so the sum is taken over the
r < (k+2)/2 half and doubled.

Counts are evaluated in Python integers at a scale 2**F that ``diagram.count_bits`` sets, from one
table of sines and poles each within one unit, ``_angles``: one evaluator, for ``count_spectral``'s
vertex and the columns of verify's sweep ``spectral_columns``, forms each count as one integer dot
product within 1/32 of it by an a priori bound, so its nearest integer is certified.  A count past
MAX_BITS is refused; the sweep is admitted as a table, whose budget keeps F within MAX_BITS.
mpmath, imported at first use, serves ``residue_decomposition``, ``growth_rate`` and
``empirical_rate``.
"""

from collections import deque, namedtuple
from functools import lru_cache
from math import isqrt
from operator import mul

from .diagram import (_check_budget, _check_height, _check_nonneg, admit_table, count_bits,
                      dp_columns, is_vertex, vertex_heights)

MAX_BITS = 1 << 16  # count_spectral refuses a length that needs more precision


def _check_bits(bits: int) -> None:
    _check_nonneg(bits=bits)
    if bits == 0:
        raise ValueError("bits must be positive, got 0")


class PrecisionExhaustedError(ArithmeticError):
    """Raised when no count can be certified within MAX_BITS of precision."""


class SpectralDecomposition(namedtuple("SpectralDecomposition", "k i bits terms")):
    """Weights and poles of the count power sum for one (k, i), at fixed precision.

    ``terms`` is ((weight, pole), ...) for r = 1..k+1, in r order.
    """

    __slots__ = ()


def _products(sines, i: int, count: int) -> list:
    # 2 sin(theta_r) sin((i+1) theta_r), r = 1..count, from a level's sines of any type: the sine at
    # (i+1) r mod (k+2), negated after an odd number of half-turns (sin(x + pi) = -sin(x))
    n = len(sines)
    return [2 * (-1) ** ((i + 1) * r // n) * sines[r] * sines[(i + 1) * r % n]
            for r in range(1, count + 1)]


def _within(value, unit: int, scale: int, bits: int) -> bool:
    # |value 2**scale - unit| <= 2**(scale + 4 - bits) - 1, exactly from value's sign, mantissa and
    # exponent: value is then within 2**(4 - bits) of an x that unit is within one of at 2**scale
    sign, man, exp, _ = value._mpf_
    up, down = max(exp + scale, 0), max(-exp - scale, 0)
    return abs((-1) ** sign * (man << up) - (unit << down)) <= ((1 << scale + 4 - bits) - 1) << down


def residue_decomposition(k: int, i: int, bits: int = 113) -> SpectralDecomposition:
    """The exact partial-fraction data behind the power sum, as mpmath reals.

    Requires 0 <= i <= k.  weights w_r are twice the residues of
    U_{k-i}/U_{k+1} at the roots of U_{k+1}; poles are the corresponding
    path-graph eigenvalues 2 cos(r pi/(k+2)).  Each sine and cosine is proven
    within 2**(4 - bits) against the integer table that counts use, or
    PrecisionExhaustedError is raised.  More than MAX_ENTRIES terms, the budget
    of a table, raise TableBudgetError before anything is computed.
    """
    _check_height(k, i)
    _check_bits(bits)
    _check_budget(f"residues for k={k} need", k + 1, "terms")
    import mpmath
    # the table's proof takes w < 2 scale, which holds from 64 bits at every level within budget
    n, scale = k + 2, max(bits + 8, 64)
    table_sines, table_poles = _angles(k, scale)
    sines, poles = [0] * n, [None] * (n - 1)  # sin 0 = 0
    with mpmath.workprec(bits):
        pi = +mpmath.pi
        # mpmath's cos and sin of m pi/n for 0 < m <= n/2, exactly 0 and 1 at pi/2 (even k), are
        # mirrored by theta -> pi - theta, the direct value stored last so the middle keeps its own
        for m in range(1, n // 2 + 1):
            c, s = (mpmath.mpf(0), mpmath.mpf(1)) if 2 * m == n else mpmath.cos_sin(pi * m / n)
            if not (_within(s, table_sines[m], scale, bits)
                    and _within(c, table_poles[m - 1], scale + 1, bits)):
                raise PrecisionExhaustedError(f"sin/cos off enclosure at k={k}, {bits} bits")
            sines[-m], sines[m] = s, s
            poles[-m], poles[m - 1] = -2 * c, 2 * c
        terms = tuple(zip((p / n for p in _products(sines, i, k + 1)), poles))
    return SpectralDecomposition(k=k, i=i, bits=bits, terms=terms)


def _pi(bits: int) -> int:
    # 2**bits pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239), each floored once from
    # atan(1/x) = (1/x) sum_t prod_{0 < s <= t} (1 - 2s) / ((2s+1) x**2), summed exactly by binary
    # splitting over the t < bits / (2 log2 x) that leave a tail under 2**-bits
    def split(x, a, b):  # over s in [a, b): the numerators' product P, denominators' Q, Q * sum
        if b - a == 1:
            return (1 - 2 * a, (2 * a + 1) * x * x, 1 - 2 * a) if a else (1, 1, 1)
        (pa, qa, ta), (pb, qb, tb) = split(x, a, (a + b) // 2), split(x, (a + b) // 2, b)
        return pa * pb, qa * qb, ta * qb + pa * tb

    def atan_inv(x):
        _, q, t = split(x, 0, bits // (2 * x.bit_length() - 2) + 1)
        return (t << bits) // (q * x)
    return 16 * atan_inv(5) - 4 * atan_inv(239)


@lru_cache(maxsize=4096)
def _angles(level: int, bits: int) -> tuple:
    # 2**bits sin(m pi/n) for m < n and the poles 2**bits 2 cos(r pi/n), 0 < r < n, n = level + 2,
    # each within one unit: cos(pi/n) is the Taylor series of cos x, x = pi/(n 2**rr), doubled rr
    # times by cos 2t = 2 cos(t)**2 - 1, z = e**(i pi/n) takes its sine from an integer square root,
    # and z**m comes by rotation for m <= n/2, mirrored by theta -> pi - theta.  In units of 2**-w,
    # w = bits + guard < 2 bits, and with every error below 2**(guard-2):
    # - pi is within 16 * 2 + 4 * 2 (floors, tails), x within 1 + 40/8 = 6, y = x**2 within 8;
    # - a Taylor term, floored after y is cut to the bits that reach it, is within 7 of the series
    #   of x: N <= w/2 + 1 quartering terms and a tail under 8 put cos x within D0 <= 4w + 15;
    # - a doubling takes an error D to 4D + 2 D**2 2**-w + 1, so cos(pi/n) is within
    #   D < 2 4**rr (D0 + 1), its sine within D n/2 + 1, as cot(pi/n) < n/2, and a rotation adds
    #   z's error and 2: z**m is within n (n D + 3) < 10 n**2 w 4**rr <= 2**(guard-2), so a sine,
    #   or a pole rounded after doubling, is within 1/2 + 1/2.
    n, rr = level + 2, isqrt(bits) // 2
    guard = 2 * rr + 2 * n.bit_length() + bits.bit_length() + 7
    w = bits + guard
    x = _pi(w) // (n << rr)
    y, c, term, m = x * x >> w, 1 << w, 1 << w, 0  # cos x = 1 - y/2! + y**2/4! - ...
    while term:
        cut = max(w - term.bit_length(), 0)
        term, m = (term * (y >> cut) >> (w - cut)) // ((m + 1) * (m + 2)), m + 2
        c += term if m % 4 == 0 else -term
    for _ in range(rr):
        c = (c * c >> (w - 1)) - (1 << w)
    s = isqrt((1 << 2 * w) - c * c)
    sines, poles, a, b = [0] * n, [0] * n, 1 << w, 0
    for m in range(n // 2 + 1):
        sines[m] = sines[-m] = (b + (1 << (guard - 1))) >> guard
        pole = (a + (1 << (guard - 2))) >> (guard - 1)
        poles[-m], poles[m] = -pole, pole
        a, b = (a * c - b * s) >> w, (a * s + b * c) >> w
    return tuple(sines), tuple(poles[1:])


def _bits(k: int, j: int) -> int:
    # Counts of length j <= J at level L = min(k, J) are evaluated at scale 2**F, F = _bits(k, J):
    # count_bits(k, J) + bit_length(J) + 8, rounded up to a multiple of 64 to share tables.  With
    # lam = 2 cos(pi/(L+2)) and lam' = lam + 2**-F, in units of 2**-F over h <= (J+1)/2 poles, the
    # exact dot product doubled is within 2**(1-F) lam'**j (5h/2 (1 + 3j/2 2**-F) + 3j/2) <
    # 2**(1-F) lam'**J 3 (J+1) of the count, below 3/128 (1 + 2**-8) < 1/32, since:
    # - _angles gives every sine and pole within 1, and a weight 2 S_r S_m / (n 2**F), floored, is
    #   within 1 + (4 + 2**(1-F))/n < 5/2 as n >= 3, with sum |w_r| <= 2h/n < 1;
    # - powers within E_a and E_b give a product, truncated, within lam**a E_b + lam**b E_a +
    #   E_a E_b 2**-F + 1 <= (2m-1) lam'**(m-1) < 3m/2 lam'**m, m = a + b, if E_a and E_b are so
    #   bounded: at L >= 2, lam' > sqrt(2) and 2**F > 4 J**2 (count_bits >= J/2) put E_a E_b 2**-F
    #   below (lam'-1) lam'**(m-2) <= lam'**(m-1) - 1.  Level 1's one pole, 1, is exact, as _angles
    #   rounds an integer from within 1/2, and level 0 has none;
    # - lam'**J < 2**count_bits (1 + 2**-8), as count_bits > J log2 lam and J 2**-F < 2**-9, or,
    #   where count_bits is clipped to J, as lam' <= 2 from 2 - lam >= 4/(L+2)**2 >= 2**-F.
    return -(-(count_bits(k, j) + j.bit_length() + 8) // 64) * 64


def _column(sines: tuple, bits: int, heights, powers, weights: dict) -> list:
    # the counts at a column's heights (j > 0) from its pole powers; the caller's dict keeps weights
    for i in heights:
        if i not in weights:
            weights[i] = [p // (len(sines) << bits) for p in _products(sines, i, len(powers))]
    return [sum(map(mul, weights[i], powers)) + (1 << 2 * bits - 2) >> 2 * bits - 1
            for i in heights]


def count_spectral(k: int, i: int, j: int) -> int:
    """Path count via the spectral power sum, evaluated once in integers and certified.

    Runs at level min(k, j), since no path of j steps climbs higher, at scale 2**F with F about
    count_bits(k, j) + log2(j) + 8, where an a priori bound keeps the error below 1/32; each pole
    is raised to the j-th power by binary powering.  F past MAX_BITS (j > 65512 from level 684 on,
    later below) raises PrecisionExhaustedError.  Unreachable targets count zero, as in count_dp.
    """
    _check_nonneg(k=k, i=i, j=j)
    if j == 0 or not is_vertex(k, i, j):  # the empty path: the halved sum drops the pole 0
        return int(is_vertex(k, i, j))
    bits, level = _bits(k, j), min(k, j)
    if bits > MAX_BITS:
        raise PrecisionExhaustedError(f"no stable integer for (k={k}, i={i}, j={j}) within"
                                      f" {MAX_BITS} bits (last residual: never evaluated)")
    sines, poles = _angles(level, bits)
    powers = poles[:(level + 1) // 2]  # to the j-th power by binary powering from the high bit
    for bit in bin(j)[3:]:
        powers = [power * power >> bits for power in powers]
        if bit == "1":
            powers = [power * pole >> bits for power, pole in zip(powers, poles)]
    return _column(sines, bits, (i,), powers, {})[0]


def spectral_columns(k: int, jmax: int) -> list:
    """count_spectral(k, i, j) at every vertex with j <= jmax, in columns of heights 0..min(k, j).

    Every column runs at level min(k, jmax) and scale _bits(k, jmax), column j's pole powers are
    column j - 1's times the poles, and each height's weights are computed once.  The sweep is
    admitted as build_table(k, jmax) is, and no admitted shape needs more than MAX_BITS.
    """
    # at level >= 2 an admitted table has need >= jmax vertices and need * count_bits <= 4096
    # MAX_ENTRIES bits, so count_bits <= min(jmax, 4.096e9 / jmax) <= 64000 and jmax < 2**20:
    # _bits <= 64064.  Levels 0 and 1 have counts of one bit and jmax < 2**21, so run at 64 bits
    admit_table(k, jmax)
    bits, level = _bits(k, jmax), min(k, jmax)
    sines, poles = _angles(level, bits)
    powers, weights, columns = [1 << bits] * ((level + 1) // 2), {}, []
    for j in range(jmax + 1):
        col = [0] * (min(k, j) + 1)
        col[j % 2::2] = _column(sines, bits, vertex_heights(k, j), powers, weights) if j else [1]
        columns.append(col)
        powers = [power * pole >> bits for power, pole in zip(powers, poles)]
    return columns


def growth_rate(k: int, bits: int = 53):
    """Dominant eigenvalue 2 cos(pi / (k+2)): the asymptotic growth per step."""
    _check_nonneg(k=k)
    _check_bits(bits)
    import mpmath
    with mpmath.workprec(bits):  # at k = 0, 2 cos(pi/2) is 0 exactly, as residues has it
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
    _check_bits(bits)
    jm = jmax - (i + jmax) % 2
    if jm < 2:
        raise ValueError("jmax too small: need at least two usable lengths")
    # columns jm - 2, jm - 1 and jm of one DP pass; a height above min(k, jm) counts 0
    b, _, a = (col[i] if i < len(col) else 0 for col in deque(dp_columns(k, jm), maxlen=3))
    if a == 0 or b == 0:
        raise ValueError("counts vanish")
    import mpmath
    with mpmath.workprec(bits):
        return mpmath.sqrt(mpmath.mpf(a) / mpmath.mpf(b))
