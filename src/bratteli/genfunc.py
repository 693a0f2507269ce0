"""Exact generating functions for bounded path counts.

Polynomials are lists of Python ints in ascending degree order with no
trailing zeros (the zero polynomial is the empty list).  make_gf and
poly_gcd trim their arguments to that form; every other helper takes lists
already in it.  On top of them sit reduced rational generating functions
and two constructions of the counting series for paths ending at height i
in the level-k diagram:

* a product form built from the bounded-height Dyck series R_k, one factor
  per excursion of the last-departure factorization, and
* a closed form x**i * V_{k-i}(x) / V_{k+1}(x), where V_m is the even
  integer polynomial x**m * U_m(1/(2x)) obtained by reversing the degree-m
  Chebyshev polynomial of the second kind, reduced by the identity
  gcd(U_{m-1}, U_{n-1}) = U_{gcd(m, n)-1}.

Everything here is exact integer arithmetic; series extraction never
divides because denominators are normalized to constant term 1.
"""

from collections import deque, namedtuple
from itertools import count, islice
from math import comb, gcd
from operator import mul

from .diagram import _check_height, _check_nonneg


# ---------------------------------------------------------------------------
# integer polynomial helpers


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_neg(a: list) -> list:
    return [-c for c in a]


def poly_sub(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for t, c in enumerate(b):
        out[t] -= c
    return _trim(out)


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for s, cs in enumerate(a):
        if cs:
            for t, ct in enumerate(b):
                out[s + t] += cs * ct
    return out


def poly_scale(a: list, c: int) -> list:
    if c == 0:
        return []
    return [c * x for x in a]


def poly_shift(a: list, n: int) -> list:
    """Multiply by x**n."""
    if not a:
        return []
    return [0] * n + list(a)


def poly_inflate(a: list) -> list:
    """Substitute x -> x**2, spreading coefficients to even degrees."""
    out = [0] * (2 * len(a))
    for t, c in enumerate(a):
        out[2 * t] = c
    return _trim(out)


def poly_eval(a: list, x):
    """Horner evaluation; works for int, float, Fraction, mpf, ..."""
    acc = 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_content(a: list) -> int:
    return gcd(*a)


def poly_divexact(a: list, b: list) -> list:
    """Exact quotient a / b over the integers; raises if b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for s in range(len(q) - 1, -1, -1):
        c = rem[s + len(b) - 1]
        if c % lead:
            raise ValueError("inexact polynomial division")
        f = c // lead
        q[s] = f
        if f:
            for t, ct in enumerate(b):
                rem[s + t] -= f * ct
    if any(rem):
        raise ValueError("inexact polynomial division")
    return _trim(q)


def _primitive(a: list) -> list:
    c = poly_content(a)
    if c == 0:
        return []
    p = [x // c for x in a]
    if p[-1] < 0:
        p = poly_neg(p)
    return p


def _pseudo_rem(a: list, b: list) -> list:
    # fraction-free remainder: scale by the leading coefficient of b as needed
    lead = b[-1]
    rem = list(a)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        f = rem[-1]
        rem = poly_sub(poly_scale(rem, lead), poly_shift(poly_scale(b, f), shift))
    return rem


def poly_gcd(a: list, b: list) -> list:
    """Greatest common divisor over the integers of a and b, trimmed (primitive PRS, lead > 0)."""
    a, b = _trim(list(a)), _trim(list(b))
    cont = gcd(poly_content(a), poly_content(b))
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return poly_scale(a, cont)


# ---------------------------------------------------------------------------
# rational generating functions


class RationalGF(namedtuple("RationalGF", "num den")):
    """A reduced rational power series num/den with den(0) = 1.

    num and den are coprime integer polynomials (ascending tuples) with no
    common content; the normalization makes the representation canonical,
    so == is exact series equality.
    """

    __slots__ = ()


def make_gf(num: list, den: list) -> RationalGF:
    """Reduce num/den to canonical form.

    Divides out the polynomial gcd and the joint integer content, then fixes
    the sign so den(0) = +1.  Raises ValueError when den is zero, when
    den(0) = 0 (no power-series expansion), or when the reduced constant
    term is not a unit (the series would not be integral).
    """
    num = _trim(list(num))
    den = _trim(list(den))
    if not den:
        raise ValueError("zero denominator")
    g = poly_gcd(num, den)  # it carries the contents' gcd: the quotients' contents are coprime
    if len(g) > 1 or g[0] != 1:
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    if den[0] == 0:
        raise ValueError("denominator vanishes at 0; not a power series")
    if abs(den[0]) != 1:
        raise ValueError(f"denominator constant term {den[0]} is not a unit")
    if den[0] < 0:
        num, den = poly_neg(num), poly_neg(den)
    return RationalGF(tuple(num), tuple(den))


GF_ZERO = RationalGF((), (1,))
GF_ONE = RationalGF((1,), (1,))


def gf_sub(a: RationalGF, b: RationalGF) -> RationalGF:
    num = poly_sub(poly_mul(list(a.num), list(b.den)), poly_mul(list(b.num), list(a.den)))
    return make_gf(num, poly_mul(list(a.den), list(b.den)))


def gf_mul(a: RationalGF, b: RationalGF) -> RationalGF:
    return make_gf(poly_mul(list(a.num), list(b.num)), poly_mul(list(a.den), list(b.den)))


def gf_inv(g: RationalGF) -> RationalGF:
    """Reciprocal series; requires the numerator constant term to be a unit."""
    return make_gf(list(g.den), list(g.num))


def gf_shift(g: RationalGF, n: int) -> RationalGF:
    """Multiply by x**n."""
    _check_nonneg(n=n)
    return make_gf(poly_shift(list(g.num), n), list(g.den))


def gf_inflate(g: RationalGF) -> RationalGF:
    """Substitute x -> x**2."""
    return make_gf(poly_inflate(list(g.num)), poly_inflate(list(g.den)))


# ---------------------------------------------------------------------------
# Chebyshev polynomials and their reversed companions


def chebyshev_u(r: int) -> list:
    """Coefficients of the Chebyshev polynomial of the second kind U_r.

    U_r = sum_s (-1)**s C(r-s, s) (2x)**(r-2s); satisfies
    U_r(cos t) = sin((r+1)t) / sin(t).
    """
    _check_nonneg(r=r)
    coeffs = [0] * (r + 1)
    for s, c in enumerate(_u_reversed_even(r)):
        coeffs[r - 2 * s] = c << (r - 2 * s)
    return coeffs


def _u_reversed_even(m: int) -> list:
    # x**m U_m(1/(2x)) written in t = x**2: coefficient of t**s is (-1)**s C(m-s, s), [] at m = -1
    return [(-1) ** s * comb(m - s, s) for s in range(m // 2 + 1)]


def u_reversed(m: int) -> list:
    """The even integer polynomial x**m * U_m(1/(2x)).

    Reversing U_m this way turns its roots cos(r pi / (m+1)) into poles of
    counting series: the denominators below are exactly these polynomials.
    """
    _check_nonneg(m=m)
    return poly_inflate(_u_reversed_even(m))


def bounded_dyck_gf(k: int) -> RationalGF:
    """Series in t counting Dyck paths of height at most k-1 by half-length.

    Equals the degree-(k-1) reversed Chebyshev polynomial over the degree-k
    one, and obeys the continued-fraction law
    bounded_dyck_gf(k+1) = 1 / (1 - t * bounded_dyck_gf(k)) with the k = 0
    series identically zero.
    """
    _check_nonneg(k=k)
    return make_gf(_u_reversed_even(k - 1), _u_reversed_even(k))


# ---------------------------------------------------------------------------
# the two generating functions for path counts


def gf_product_form(k: int, i: int) -> RationalGF:
    """Counting series for paths to height i, assembled factor by factor.

    One bounded Dyck series (in x**2) for the excursion below each visited
    level, one x per climbing step: the last-departure factorization made
    algebra.  Requires 0 <= i <= k.
    """
    _check_height(k, i)
    g = gf_inflate(bounded_dyck_gf(k + 1))
    for r in range(1, i + 1):
        g = gf_mul(g, gf_shift(gf_inflate(bounded_dyck_gf(k + 1 - r)), 1))
    return g


def gf_closed_form(k: int, i: int) -> RationalGF:
    """Counting series for paths to height i as a single reduced fraction.

    x**i times the reversed Chebyshev polynomial of degree k-i over the one
    of degree k+1, each divided by their gcd V_{d-1}, d = gcd(k-i+1, k+2).
    Identical as a series to gf_product_form(k, i).
    """
    _check_height(k, i)
    common = u_reversed(gcd(k - i + 1, k + 2) - 1)  # every V_m(0) = 1: den(0) = 1, content 1
    num, den = (poly_divexact(u_reversed(m), common) for m in (k - i, k + 1))
    return RationalGF(tuple(poly_shift(num, i)), tuple(den))


def _series(g: RationalGF, nonnegative: bool):
    # series_coeffs' recurrence, keeping only the last len(den) - 1 coefficients, all it reads
    num, tail = g.num, g.den[1:]
    recent = deque([0] * len(tail), maxlen=len(tail))  # c_{m-1}, c_{m-2}, ...
    for m in count():
        c = (num[m] if m < len(num) else 0) - sum(map(mul, tail, recent))
        if nonnegative and c < 0:
            raise ValueError(f"negative series coefficient {c} at degree {m}")
        recent.appendleft(c)
        yield c


def series_coeffs(g: RationalGF, n: int, *, nonnegative: bool = False) -> list:
    """First n+1 power-series coefficients of g, by the convolution recurrence.

    With den(0) = 1 the coefficients obey
    c_m = num_m - sum_{t>=1} den_t c_{m-t}, all in exact integers.  Set
    ``nonnegative`` when expanding a counting series: a negative coefficient
    then raises ValueError since it can only mean an upstream bug.
    """
    _check_nonneg(n=n)
    return list(islice(_series(g, nonnegative), n + 1))


def series_coeff(g: RationalGF, n: int, *, nonnegative: bool = False) -> int:
    """series_coeffs(g, n, nonnegative=nonnegative)[n], in memory that does not grow with n."""
    _check_nonneg(n=n)
    return deque(islice(_series(g, nonnegative), n + 1), maxlen=1)[0]


def decimate(g: RationalGF) -> tuple:
    """Collapse a parity-supported series: returns (h, p) with h in t = x**2.

    Requires an even denominator and a numerator supported on a single
    parity p; then coefficient m of h equals coefficient 2m + p of g.  g is
    taken as reduced, as make_gf returns it, and then so is h.
    """
    if any(g.den[t] for t in range(1, len(g.den), 2)):
        raise ValueError("denominator is not even")
    support = {t % 2 for t, c in enumerate(g.num) if c}
    if len(support) > 1:
        raise ValueError("numerator mixes parities")
    p = support.pop() if support else 0
    # reduced g, reduced halves: a common factor c(t) would divide g's num and den as c(x**2)
    return RationalGF(tuple(g.num[p::2]), tuple(g.den[0::2])), p


# ---------------------------------------------------------------------------
# linear recurrences


class LinearRecurrence(namedtuple("LinearRecurrence", "order coeffs initial")):
    """c_m = sum_t coeffs[t-1] * c_{m-t} for m >= len(initial), seeded by initial.

    ``initial`` holds max(order, deg(num) + 1) leading terms so that
    replaying the recurrence reproduces the source series exactly even when
    the numerator degree reaches the denominator degree.
    """

    __slots__ = ()

    def terms(self, n: int) -> list:
        """Replay the recurrence: exact coefficients c_0 .. c_n."""
        out = list(self.initial[: n + 1])
        for m in range(len(out), n + 1):
            c = 0
            for t in range(1, self.order + 1):
                c += self.coeffs[t - 1] * out[m - t]
            out.append(c)
        return out


def recurrence_from_gf(g: RationalGF) -> LinearRecurrence:
    """Constant-coefficient recurrence satisfied by the series of g.

    The order is the denominator degree and coeffs[t-1] = -den[t]; the
    seed terms come straight from series_coeffs.
    """
    order = len(g.den) - 1
    coeffs = tuple(-g.den[t] for t in range(1, order + 1))
    ninit = max(order, len(g.num))
    initial = tuple(series_coeffs(g, ninit - 1)) if ninit else ()
    return LinearRecurrence(order=order, coeffs=coeffs, initial=initial)
