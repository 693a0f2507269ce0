"""Closed forms for small k and the unbounded (k = infinity) limit.

For k <= 5 the counting sequences collapse to familiar ones: indicator
values at k=1, powers of two at k=2, Fibonacci numbers at k=3 (with the
F_{-1} = 1 extension so the length-0 count works), averaged powers of
three at k=4, and at k=5 a single cubic recurrence
a_m = 5 a_{m-1} - 6 a_{m-2} + a_{m-3}.  Once k >= j the height bound never
binds and the counts are ballot numbers, Catalan numbers on the axis:
``count_unbounded`` is the k = infinity entry.
"""

import math

from .diagram import _check_nonneg, is_vertex


def count_unbounded(i: int, j: int) -> int:
    """Walks of length j from 0 to i with +-1 steps staying nonnegative.

    The ballot-style closed form ((i+1)/(j+1)) * C(j+1, (j-i)/2), which is
    an exact integer; 0 when parity or i > j rules the endpoint out.
    """
    _check_nonneg(i=i, j=j)
    if i > j or (i + j) % 2:
        return 0
    return (i + 1) * math.comb(j + 1, (j - i) // 2) // (j + 1)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n+1): axis counts count_unbounded(0, 2n)."""
    _check_nonneg(n=n)
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(m: int) -> int:
    """Fibonacci numbers with F_{-1} = 1, F_0 = 0, F_1 = 1; defined for m >= -1."""
    if m < -1:
        raise ValueError("m must be at least -1")
    prev, cur = 1, 0  # F_{-1}, F_0
    for _ in range(m + 1):
        prev, cur = cur, prev + cur
    return prev


def _k5_seq(m: int) -> int:
    # a_0 = a_1 = 1, a_2 = 2, a_m = 5 a_{m-1} - 6 a_{m-2} + a_{m-3}
    seq = [1, 1, 2]
    while len(seq) <= m:
        seq.append(5 * seq[-1] - 6 * seq[-2] + seq[-3])
    return seq[m]


def closed_form(k: int, i: int, j: int) -> int:
    """Path count from the closed form for k in {1, 2, 3, 4, 5}.

    Exactly equal to count_dp(k, i, j) on its domain (any other k raises
    ValueError; count_unbounded covers k = infinity); unreachable (i, j) give 0.
    """
    _check_nonneg(k=k, i=i, j=j)
    if k not in (1, 2, 3, 4, 5):
        raise ValueError(f"no closed form wired up for k={k!r}")
    if not is_vertex(k, i, j):
        return 0
    if k == 1:
        return 1
    if k == 2:
        if i == 1:
            return 2 ** ((j - 1) // 2)
        return 1 if j == 0 else 2 ** (j // 2 - 1)
    if k == 3:
        # heights 0 and 3 sit one Fibonacci index behind heights 1 and 2
        return fibonacci(j - 1) if i in (0, 3) else fibonacci(j)
    if k == 4:
        if i == 0:
            return 1 if j == 0 else (3 ** ((j - 2) // 2) + 1) // 2
        if i == 1:
            return (3 ** ((j - 1) // 2) + 1) // 2
        if i == 2:
            return 3 ** ((j - 2) // 2)
        if i == 3:
            return (3 ** ((j - 1) // 2) - 1) // 2
        return (3 ** ((j - 2) // 2) - 1) // 2
    # k == 5: everything in terms of the cubic-recurrence sequence
    if i == 0:
        return _k5_seq(j // 2)
    if i == 1:
        return _k5_seq((j + 1) // 2)
    if i == 2:
        m = (j - 2) // 2
        return _k5_seq(m + 2) - _k5_seq(m + 1)
    if i == 3:
        m = (j - 3) // 2
        return _k5_seq(m + 3) - 2 * _k5_seq(m + 2)
    m = (j - i) // 2
    return _k5_seq(m + 4) - 3 * _k5_seq(m + 3) + _k5_seq(m + 2)
