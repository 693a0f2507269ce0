"""Spectral backend: counts as finite power sums over the adjacency spectrum.

The path graph on heights 0..k has eigenvalues 2 cos(r pi / (k+2)) for
r = 1..k+1, so the count of length-j paths ending at height i is the exact
real number

    sum_r w_r * lambda_r**j,
    w_r = (2 / (k+2)) * (-1)**(r+1) * U_{k-i}(rho_r) * sin(r pi/(k+2))**2,
    lambda_r = 2 * rho_r,   rho_r = cos(r pi / (k+2)),

with U the Chebyshev polynomials of the second kind.  Evaluated in binary
floating point the sum is only close to the true integer, so
``count_spectral`` raises precision until rounding is trustworthy: start at
max(initial_bits, j + 32) bits (counts are below 2**j), and accept only a
value within ``accept_distance`` of the same integer at two consecutive
precisions (one doubling apart).

mpmath supplies the arbitrary-precision reals; everything else is explicit.
"""

from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .diagram import _check_nonneg, count_dp


class PrecisionExhaustedError(ArithmeticError):
    """Raised when no stable integer emerges within the precision budget."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """Adaptive-precision schedule for count_spectral.

    initial_bits must be at least 64 and accept_distance at most 2**-16;
    max_bits should leave room for at least one doubling above the starting
    precision or the stability test can never pass.
    """

    initial_bits: int = 64
    max_bits: int = 1 << 16
    accept_distance: float = 2.0 ** -16

    def __post_init__(self):
        if self.initial_bits < 64:
            raise ValueError("initial_bits must be at least 64")
        if not 0.0 < self.accept_distance <= 2.0 ** -16:
            raise ValueError("accept_distance must be in (0, 2**-16]")
        if self.max_bits < self.initial_bits:
            raise ValueError("max_bits must be at least initial_bits")


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Weights and poles of the count power sum for one (k, i), at fixed precision."""

    k: int
    i: int
    bits: int
    terms: tuple  # ((weight, pole), ...) for r = 1..k+1, in r order


@lru_cache(maxsize=4096)
def _angles(k: int, bits: int) -> tuple:
    # cos and sin**2 of r pi/(k+2) for r = 1..k+1, computed once per (k, bits)
    with mpmath.workprec(bits):
        pi = +mpmath.pi
        rhos = []
        sin2s = []
        for r in range(1, k + 2):
            theta = pi * r / (k + 2)
            rhos.append(mpmath.cos(theta))
            sin2s.append(mpmath.sin(theta) ** 2)
    return tuple(rhos), tuple(sin2s)


def _u_value(r: int, x):
    # U_r(x) by the three-term recurrence, in the arithmetic of x
    prev = 1 + 0 * x
    if r == 0:
        return prev
    cur = 2 * x
    for _ in range(r - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def _terms(k: int, i: int, bits: int) -> list:
    rhos, sin2s = _angles(k, bits)
    out = []
    sign = 1
    for r in range(1, k + 2):
        rho = rhos[r - 1]
        w = 2 * sign * _u_value(k - i, rho) * sin2s[r - 1] / (k + 2)
        out.append((w, 2 * rho))
        sign = -sign
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
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    with mpmath.workprec(bits):
        terms = tuple(_terms(k, i, bits))
    return SpectralDecomposition(k=k, i=i, bits=bits, terms=terms)


def count_spectral(k: int, i: int, j: int, policy: PrecisionPolicy | None = None) -> int:
    """Path count via the spectral power sum, rounded once it is provably stable.

    Precision starts at max(initial_bits, j + 32) bits and doubles until the
    sum lies within accept_distance of the same integer twice in a row;
    PrecisionExhaustedError reports the final residual if max_bits is hit
    first.  Requires 0 <= i <= k and j >= 0.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    _check_nonneg(k=k, i=i, j=j)
    if i > k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    bits = max(policy.initial_bits, j + 32)
    last = None
    dist = None
    while bits <= policy.max_bits:
        with mpmath.workprec(bits):
            total = mpmath.mpf(0)
            for w, lam in _terms(k, i, bits):
                total += w * lam ** j
            nearest = int(mpmath.nint(total))
            dist = abs(total - nearest)
            ok = dist < policy.accept_distance
        if ok and last == nearest:
            return nearest
        last = nearest if ok else None
        bits <<= 1
    residual = "never evaluated" if dist is None else mpmath.nstr(dist, 8)
    raise PrecisionExhaustedError(
        f"no stable integer for (k={k}, i={i}, j={j}) within {policy.max_bits} bits"
        f" (last residual: {residual})"
    )


def growth_rate(k: int, bits: int = 53):
    """Dominant eigenvalue 2 cos(pi / (k+2)): the asymptotic growth per step."""
    if k < 0:
        raise ValueError("k must be nonnegative")
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
    if k < 0 or i < 0 or jmax < 0:
        raise ValueError("k, i, jmax must be nonnegative")
    jm = jmax - (i + jmax) % 2
    if jm < 2:
        raise ValueError("jmax too small: need at least two usable lengths")
    a = count_dp(k, i, jm)
    b = count_dp(k, i, jm - 2)
    if a == 0 or b == 0:
        raise ValueError(f"counts vanish at (k={k}, i={i}); empirical rate undefined")
    with mpmath.workprec(bits):
        return mpmath.sqrt(mpmath.mpf(a) / mpmath.mpf(b))
