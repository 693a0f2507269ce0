"""Path counting in the level-k Bratteli diagram.

The diagram has a vertex (i, j) for every height 0 <= i <= k with i <= j and
i congruent to j mod 2, and an arc (i, j) -> (i', j+1) whenever |i - i'| = 1
and both endpoints are vertices.  ``count_dp(k, i, j)`` is the number of
directed paths from (0, 0) to (i, j); equivalently, the number of
nonnegative lattice walks of length j with +-1 steps that stay at or below
height k and end at height i.

Two independent backends live here: a column-by-column dynamic program and
binary powering of the path-graph adjacency matrix, folded onto a 2(k+2)-cycle.
Counts are exact Python integers, or a table's sums of another exact unit;
they reach 2**(j-1) so machine words and floats are never used.
"""

import math
from functools import cached_property
from itertools import accumulate
from operator import add, mul


MAX_ENTRIES = 1_000_000  # the size budget: vertices, cells or terms, or 4096 times as many bits


class TableBudgetError(RuntimeError):
    """Raised when a requested table would exceed its entry budget."""


def _check_nonneg(**named: int) -> None:
    for name, value in named.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _check_height(k: int, i: int) -> None:
    _check_nonneg(k=k, i=i)
    if i > k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")


def is_vertex(k: int, i: int, j: int) -> bool:
    """True when (i, j) is a vertex of the level-k diagram; at k = 0 only (0, 0) is reachable."""
    return 0 <= i <= k and 0 <= i <= j and (i + j) % 2 == 0


def vertex_heights(k: int, j: int) -> range:
    """The heights i of the vertices (i, j) at length j, in increasing order."""
    return range(j % 2, min(k, j) + 1, 2)


def dp_columns(k: int, jmax: int, one=1):
    """Yield the DP column of every length j = 0..jmax, heights 0..min(k, jmax).

    Entry i of column j counts the paths from (0, 0) to (i, j), as a sum of
    the unit ``one``: an int by default, or any exact number type, such as a
    decimal.Decimal in a context that cannot round.  Entries no path reaches
    stay the int 0, which costs no object of its own.  No path of jmax steps
    climbs above height jmax, so the cost does not grow with an unused bound
    k.  Each column is a fresh list.
    """
    _check_nonneg(k=k, jmax=jmax)
    top = min(k, jmax)
    col = [one] + [0] * top
    yield col
    for _ in range(jmax):
        # the border heights have one neighbour each; k = 0 has no arcs at all
        col = [col[1], *map(add, col, col[2:]), col[top - 1]] if top else [0]
        yield col


def count_dp(k: int, i: int, j: int) -> int:
    """Count directed paths from (0, 0) to (i, j) by the two-column recurrence.

    The count satisfies D(i, j) = D(i-1, j-1) + D(i+1, j-1) with heights
    outside [0, k] contributing zero; it is entry i of the last of
    dp_columns(k, j).  Unreachable targets (i > k, i > j, or i + j odd)
    count zero; negative arguments are rejected.  Runs in O(min(k, j) * j)
    integer additions and O(min(k, j)) memory.
    """
    _check_nonneg(k=k, i=i, j=j)
    if not is_vertex(k, i, j):
        return 0
    for col in dp_columns(k, j):
        pass
    return col[i]


class CountTable:
    """All path counts of the level-k diagram up to length jmax, as DP columns.

    ``columns[j]`` is the column that dp_columns(k, jmax) yields for length
    j: entry i counts the paths to (i, j), and is 0 unless (i, j) is a
    vertex.  The columns hold exact counts of one number type, the type of
    dp_columns' unit (int unless the caller asks for another), and the int 0
    where no path reaches.  ``entries`` maps (i, j) to the count of every
    vertex, built on first use.  Treat instances as immutable once built.
    """

    def __init__(self, k: int, jmax: int, columns: list):
        self.k = k
        self.jmax = jmax
        self.columns = columns

    @cached_property
    def entries(self) -> dict:
        return {
            (i, j): col[i]
            for j, col in enumerate(self.columns)
            for i in vertex_heights(self.k, j)
        }


def table_size(k: int, jmax: int) -> int:
    """Number of vertices (i, j) with j <= jmax, without building anything."""
    m = min(k, jmax)
    size = (m // 2) * ((m + 1) // 2) + m + 1  # the triangle j <= m
    if jmax > k:  # past it, k//2 + 1 heights at each even length and (k+1)//2 at each odd one
        even, odd = jmax // 2 - k // 2, (jmax + 1) // 2 - (k + 1) // 2
        size += even * (k // 2 + 1) + odd * ((k + 1) // 2)
    return size


def _check_budget(what: str, need: int, unit: str, per_entry: int = 1) -> None:
    if need > MAX_ENTRIES * per_entry:  # the package's one size refusal
        raise TableBudgetError(f"{what} {need} {unit}, budget is {MAX_ENTRIES * per_entry}")


def count_bits(k: int, j: int) -> int:
    """Bits enough for every count of length j, computing none: 1 at level L = min(k, j) < 2,
    else min(j, ceil(j log2 lam) + 1), where lam = 2 cos(pi/(L+2)) is the spectral radius."""
    level = min(k, j)
    if level < 2:  # the counts are 0 and 1, but lam = 2 cos(pi/3) reads 1 + 2**-52 in floats
        return 1
    # every count is at most lam**j: floor(j log2 lam) + 1 bits, which the ceiling still bounds
    # when the float log2 is low by less than 1.  The ceiling is taken exactly, in integers, so
    # a j too large for a float is measured too
    num, den = math.log2(2 * math.cos(math.pi / (level + 2))).as_integer_ratio()
    return min(j, -(-j * num // den) + 1)


def admit_table(k: int, jmax: int) -> int:
    """table_size(k, jmax), once build_table(k, jmax) is admitted: TableBudgetError if the table
    would hold more than MAX_ENTRIES vertices, or counts of more than MAX_ENTRIES * 4096 bits."""
    _check_nonneg(k=k, jmax=jmax)
    need, what = table_size(k, jmax), f"table for k={k}, jmax={jmax} needs"
    _check_budget(what, need, "entries")
    _check_budget(f"{what} up to", need * count_bits(k, jmax), "bits of counts", 4096)
    return need


def build_table(k: int, jmax: int, one=1) -> CountTable:
    """Every count with j <= jmax, as dp_columns(k, jmax, one), once admit_table admits them."""
    admit_table(k, jmax)
    return CountTable(k, jmax, list(dp_columns(k, jmax, one)))


def _one_step(c: list) -> list:
    # c times x + 1/x modulo x**len(c) - 1: one more step of every walk on the cycle
    return list(map(add, c[-1:] + c[:-1], c[1:] + c[:1]))


def _power_step(c: list, bit: int) -> list:
    # one step of binary powering modulo x**n - 1, n = len(c): c * c, then times x + 1/x when
    # the bit is set.  c is palindromic (c[e] == c[-e]) and so is the square, so only its
    # coefficients 0..n/2 are summed
    n = len(c)
    half = [sum(map(mul, c, c[e::-1] + c[:e:-1])) for e in range(n // 2 + 1)]
    c = half + half[-2:0:-1]
    return _one_step(c) if bit else c


def adjacency_power_row(k: int, j: int) -> list:
    """Row 0 of A**j where A is the adjacency matrix of the path graph on heights 0..k.

    Reflection in the walls -1 and k+1 folds the path onto the cycle of n = 2(k+2) vertices,
    whose circulant adjacency power is the one list c = (x + 1/x)**j mod x**n - 1: entry i of
    the row is c[i] - c[-i-2].
    """
    _check_nonneg(k=k, j=j)
    c = [1] + [0] * (2 * k + 3)
    for bit in bin(j)[2:]:
        c = _power_step(c, bit == "1")
    return [c[i] - c[-i - 2] for i in range(k + 1)]


def admit_rows(k: int, jmax: int) -> None:
    """Raise adjacency_power_rows(k, jmax)'s TableBudgetError, if any, computing nothing: it
    charges 2(L+2) entries of m + 1 bits for each m <= jmax // 2, L = min(k, jmax).  This bounds
    work, not memory: the folded entries grow as 2**j at every level, so the sweep adds about
    (L+2) * jmax**2 bits, some 4x the charge.  In process, best of 5 on 2 vCPUs: (0, 90000),
    near the edge, 0.43 s; (1, 60000) 0.31 s; (60, 4000) 0.10 s."""
    _check_nonneg(k=k, jmax=jmax)
    _check_budget(f"matrix sweep for k={k}, jmax={jmax} needs up to",
                  (min(k, jmax) + 2) * (jmax // 2 + 1) * (jmax // 2 + 2), "bits of powers", 4096)


def adjacency_power_rows(k: int, jmax: int) -> list:
    """adjacency_power_row(min(k, jmax), j) for j = 0..jmax, each power one step from the last.

    Power j is power j - 1 times x + 1/x on the folded cycle, so only one power is held, and
    admit_rows(k, jmax) admits the sweep first.
    """
    admit_rows(k, jmax)
    level = min(k, jmax)  # no path of jmax steps climbs higher
    powers = accumulate(range(jmax), lambda c, _: _one_step(c), initial=[1] + [0] * (2 * level + 3))
    return [[c[i] - c[-i - 2] for i in range(level + 1)] for c in powers]
