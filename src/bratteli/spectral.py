"""Spectral backend: counts as finite power sums over the adjacency spectrum.

The path graph on heights 0..k has eigenvalues lambda_r = 2 cos(theta_r),
theta_r = r pi / (k+2), for r = 1..k+1, so the count of length-j paths
ending at height i is the exact real number

    sum_r w_r * lambda_r**j,    w_r = 2 sin(theta_r) sin((i+1) theta_r) / (k+2).

This is the Chebyshev weight (-1)**(r+1) U_{k-i}(cos theta_r) sin(theta_r)**2
times 2/(k+2), rewritten by U_m(cos t) = sin((m+1) t) / sin t.  When i + j is
even the terms of r and k+2-r are equal, so ``count_spectral`` sums the
r < (k+2)/2 half and doubles it.

Evaluated in binary floating point the sum is only close to the true
integer, so ``count_spectral`` climbs a precision ladder: it starts at
max(INITIAL_BITS, j + 32) bits (counts are below 2**j) and accepts a value
only when the sum lies within ACCEPT_DISTANCE of the same integer at two
consecutive precisions (one doubling apart).  Agreement of two rungs is a
heuristic, not a proof that the integer is right.

mpmath supplies the arbitrary-precision reals; everything else is explicit.
"""

from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .diagram import _check_nonneg, count_dp, is_vertex

INITIAL_BITS = 64  # lowest starting precision of count_spectral's ladder
MAX_BITS = 1 << 16  # the ladder gives up above this precision
ACCEPT_DISTANCE = 2.0 ** -16  # a rung counts when its sum is this close to an integer


class PrecisionExhaustedError(ArithmeticError):
    """Raised when no stable integer emerges within MAX_BITS of precision."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Weights and poles of the count power sum for one (k, i), at fixed precision."""

    k: int
    i: int
    bits: int
    terms: tuple  # ((weight, pole), ...) for r = 1..k+1, in r order


@lru_cache(maxsize=4096)
def _angles(k: int, bits: int) -> tuple:
    # sin(m pi/(k+2)) for m = 0..k+1 and the poles 2 cos(r pi/(k+2)) for r = 1..k+1,
    # evaluated for m <= (k+2)/2 only and mirrored by theta -> pi - theta; the
    # direct value is stored last, so the middle angle m = (k+2)/2 keeps its own
    n = k + 2
    sines, cosines = [None] * (n + 1), [None] * (n + 1)
    with mpmath.workprec(bits):
        pi = +mpmath.pi
        for m in range(n // 2 + 1):
            c, s = mpmath.cos_sin(pi * m / n)
            sines[n - m], sines[m] = s, s
            cosines[n - m], cosines[m] = -c, c
        poles = tuple(2 * c for c in cosines[1:n])
    return tuple(sines[:n]), poles


def _weights(k: int, i: int, bits: int, count: int) -> list:
    # (w_r, lambda_r) for r = 1..count, in the caller's working precision
    sines, poles = _angles(k, bits)
    out = []
    for r in range(1, count + 1):
        turns, m = divmod((i + 1) * r, k + 2)
        s = -sines[m] if turns % 2 else sines[m]  # sin(x + pi) = -sin(x)
        out.append((2 * sines[r] * s / (k + 2), poles[r - 1]))
    return out


def chebyshev_roots(m: int, bits: int = 53) -> list:
    """The m roots of U_m, namely cos(r pi/(m+1)) for r = 1..m, descending."""
    if m < 1:
        raise ValueError("m must be at least 1")
    with mpmath.workprec(bits):
        pi = +mpmath.pi
        return [mpmath.cos(pi * r / (m + 1)) for r in range(1, m + 1)]


def residue_decomposition(k: int, i: int, bits: int = 113) -> SpectralDecomposition:
    """The exact partial-fraction data behind the power sum, as mpmath reals.

    Requires 0 <= i <= k.  weights w_r are twice the residues of
    U_{k-i}/U_{k+1} at the roots of U_{k+1}; poles are the corresponding
    path-graph eigenvalues 2 cos(r pi/(k+2)).
    """
    _check_nonneg(k=k, i=i)
    if i > k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    with mpmath.workprec(bits):
        terms = tuple(_weights(k, i, bits, k + 1))
    return SpectralDecomposition(k=k, i=i, bits=bits, terms=terms)


def count_spectral(k: int, i: int, j: int) -> int:
    """Path count via the spectral power sum, once two precisions agree on it.

    Runs at level min(k, j), since no path of j steps climbs higher.
    Precision starts at max(INITIAL_BITS, j + 32) bits and doubles until the
    sum lies within ACCEPT_DISTANCE of the same integer twice in a row;
    PrecisionExhaustedError reports the final residual if MAX_BITS is hit
    first.  Unreachable targets count zero, as in count_dp.
    """
    _check_nonneg(k=k, i=i, j=j)
    if not is_vertex(k, i, j):
        return 0
    if j == 0:
        return 1  # the empty path: the halved sum leaves out the pole 0, seen only at j = 0
    level = min(k, j)
    bits = max(INITIAL_BITS, j + 32)
    last = None
    dist = None
    while bits <= MAX_BITS:
        with mpmath.workprec(bits):
            half = _weights(level, i, bits, (level + 1) // 2)
            total = 2 * mpmath.fsum(w * lam ** j for w, lam in half)
            nearest = int(mpmath.nint(total))
            dist = abs(total - nearest)
            ok = dist < ACCEPT_DISTANCE
        if ok and last == nearest:
            return nearest
        last = nearest if ok else None
        bits <<= 1
    residual = "never evaluated" if dist is None else mpmath.nstr(dist, 8)
    raise PrecisionExhaustedError(
        f"no stable integer for (k={k}, i={i}, j={j}) within {MAX_BITS} bits"
        f" (last residual: {residual})"
    )


def growth_rate(k: int, bits: int = 53):
    """Dominant eigenvalue 2 cos(pi / (k+2)): the asymptotic growth per step."""
    _check_nonneg(k=k)
    with mpmath.workprec(bits):
        return 2 * mpmath.cos(mpmath.pi / (k + 2))


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
        raise ValueError(f"counts vanish at (k={k}, i={i}); empirical rate undefined")
    with mpmath.workprec(bits):
        return mpmath.sqrt(mpmath.mpf(a) / mpmath.mpf(b))
