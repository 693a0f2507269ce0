"""Path counting in the level-k Bratteli diagram.

The diagram has a vertex (i, j) for every height 0 <= i <= k with i <= j and
i congruent to j mod 2, and an arc (i, j) -> (i', j+1) whenever |i - i'| = 1
and both endpoints are vertices.  ``count_dp(k, i, j)`` is the number of
directed paths from (0, 0) to (i, j); equivalently, the number of
nonnegative lattice walks of length j with +-1 steps that stay at or below
height k and end at height i.

Two independent backends live here: a column-by-column dynamic program and
binary exponentiation of the (k+1) x (k+1) path-graph adjacency matrix.
Counts are exact Python integers; they reach 2**(j-1) so machine words and
floats are never used.
"""

from dataclasses import dataclass, field
from operator import add


MAX_ENTRIES = 1_000_000  # default budget of a table, in vertices (or cells of a layout)


class TableBudgetError(RuntimeError):
    """Raised when a requested table would exceed its entry budget."""


def _check_nonneg(**named: int) -> None:
    for name, value in named.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def is_vertex(k: int, i: int, j: int) -> bool:
    """True when (i, j) is a vertex of the level-k diagram (reachable from the origin)."""
    return 0 <= i <= k and 0 <= i <= j and (i + j) % 2 == 0


def dp_columns(k: int, jmax: int):
    """Yield the DP column of every length j = 0..jmax, heights 0..min(k, jmax).

    Entry i of column j counts the paths from (0, 0) to (i, j).  No path of
    jmax steps climbs above height jmax, so the cost does not grow with an
    unused bound k.  Each column is a fresh list.
    """
    _check_nonneg(k=k, jmax=jmax)
    top = min(k, jmax)
    col = [1] + [0] * top
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


@dataclass
class CountTable:
    """All path counts of the level-k diagram up to length jmax.

    ``entries`` maps (i, j) to the exact count for every vertex; pairs absent
    from the mapping are exactly the unreachable ones.  Treat instances as
    immutable once built.
    """

    k: int
    jmax: int
    entries: dict = field(default_factory=dict)


def table_size(k: int, jmax: int) -> int:
    """Number of vertices (i, j) with j <= jmax, without building anything."""
    total = 0
    for j in range(jmax + 1):
        top = min(k, j)
        if top >= j % 2:
            total += (top - j % 2) // 2 + 1
    return total


def build_table(k: int, jmax: int, *, max_entries: int = MAX_ENTRIES) -> CountTable:
    """Tabulate every count with j <= jmax: the vertices of dp_columns(k, jmax).

    Raises TableBudgetError before allocating anything if the table would
    hold more than ``max_entries`` vertices.
    """
    _check_nonneg(k=k, jmax=jmax, max_entries=max_entries)
    need = table_size(k, jmax)
    if need > max_entries:
        raise TableBudgetError(
            f"table for k={k}, jmax={jmax} needs {need} entries, budget is {max_entries}"
        )
    entries = {
        (i, j): col[i]
        for j, col in enumerate(dp_columns(k, jmax))
        for i in range(j % 2, min(k, j) + 1, 2)
    }
    return CountTable(k=k, jmax=jmax, entries=entries)


def _mat_mul(a: list, b: list) -> list:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for r in range(n):
        ar = a[r]
        outr = out[r]
        for t in range(n):
            art = ar[t]
            if art:
                bt = b[t]
                for c in range(n):
                    outr[c] += art * bt[c]
    return out


def adjacency_power_row(k: int, j: int) -> list:
    """Row 0 of A**j where A is the adjacency matrix of the path graph on heights 0..k."""
    _check_nonneg(k=k, j=j)
    n = k + 1
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    base = [[int(abs(r - c) == 1) for c in range(n)] for r in range(n)]
    e = j
    while e:
        if e & 1:
            power = _mat_mul(power, base)
        e >>= 1
        if e:
            base = _mat_mul(base, base)
    return power[0]


def count_matrix_power(k: int, i: int, j: int) -> int:
    """Entry (0, i) of the j-th power of the path-graph adjacency matrix.

    Agrees with count_dp everywhere and, like it, runs at level min(k, j);
    costs O(min(k, j)**3 log j) big-integer multiplications via binary
    exponentiation.
    """
    _check_nonneg(k=k, i=i, j=j)
    level = min(k, j)
    if i > level:
        return 0
    return adjacency_power_row(level, j)[i]


def degrees(k: int, i: int, j: int) -> tuple:
    """(indegree, outdegree) of the vertex (i, j), from the arc rule itself.

    Raises ValueError when (i, j) is not a vertex.  The origin has degrees
    (0, 1) for k >= 1 and (0, 0) for k = 0; vertices pinned by the boundary
    (bottom row, top row, or the leading diagonal) lose one neighbour on the
    pinched side and interior vertices have degrees (2, 2).
    """
    _check_nonneg(k=k)
    if not is_vertex(k, i, j):
        raise ValueError(f"({i}, {j}) is not a vertex of the level-{k} diagram")
    indeg = sum(is_vertex(k, i + d, j - 1) for d in (-1, 1))
    outdeg = sum(is_vertex(k, i + d, j + 1) for d in (-1, 1))
    return (indeg, outdeg)
