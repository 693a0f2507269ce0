"""Brute-force oracle over height-bounded step sequences.

A path is a string over {'u', 'd'} read left to right; the height after a
prefix is (#u - #d) and must stay in [0, k].  ``enumerate_count`` counts
paths by exhaustive backtracking, trying 'u' before 'd', so it is the
slow-but-obviously-correct reference the other backends are checked
against.  ``factorize`` splits a bounded path ending at height i into the
i+1 excursions obtained by cutting at the final departure from each of the
levels 0..i-1; piece number s (1-based) is a Dyck path whose own height
never exceeds k+1-s, which is the combinatorial heart of the product form
of the generating function.
"""

from .diagram import _check_nonneg


class EnumerationBudgetError(RuntimeError):
    """Raised when backtracking visits more nodes than the caller allowed."""


def endpoint_counts(k: int, length: int, budget: int | None = None) -> list:
    """Tally of endpoint heights over all bounded paths of the given length.

    Returns a list c with c[h] = number of paths of exactly ``length`` steps
    staying in [0, k] and ending at height h.  ``budget`` caps the number of
    search-tree nodes visited.
    """
    _check_nonneg(k=k, length=length)
    counts = [0] * (k + 1)
    visited = 0

    def walk(h: int, left: int) -> None:
        nonlocal visited
        visited += 1
        if budget is not None and visited > budget:
            raise EnumerationBudgetError(
                f"enumeration budget {budget} exhausted (k={k}, length={length})"
            )
        if left == 0:
            counts[h] += 1
            return
        if h < k:
            walk(h + 1, left - 1)
        if h > 0:
            walk(h - 1, left - 1)

    walk(0, length)
    return counts


def enumerate_count(
    k: int, i: int, j: int, *, max_length: int = 26, budget: int | None = None
) -> int:
    """Count paths from the origin to (i, j) by exhaustive backtracking.

    The search explores every bounded prefix (u before d, so enumeration
    order is lexicographic) and checks the endpoint at depth j, at level
    min(k, j) since no path of j steps climbs higher.  ``j`` must not exceed
    ``max_length`` (default 26) since the tree has up to 2**j leaves;
    ``budget`` additionally caps visited nodes and raises
    EnumerationBudgetError naming the query when exhausted.
    """
    _check_nonneg(k=k, i=i, j=j)
    if j > max_length:
        raise ValueError(f"j={j} exceeds the enumeration cap of {max_length} steps")
    level = min(k, j)
    try:
        counts = endpoint_counts(level, j, budget)
    except EnumerationBudgetError:
        raise EnumerationBudgetError(
            f"enumeration budget {budget} exhausted while counting (k={k}, i={i}, j={j})"
        ) from None
    return counts[i] if i <= level else 0


def iter_paths(k: int, length: int):
    """Yield every bounded path of the given length, in lexicographic order (u < d).

    Iterative backtracking with O(length) memory, so enumerating a few
    million paths does not nest generators.
    """
    if k < 0 or length < 0:
        raise ValueError("k and length must be nonnegative")
    if length == 0:
        yield ""
        return
    path: list = []
    h = 0
    while True:
        if len(path) == length:
            yield "".join(path)
        else:
            if h < k:
                path.append("u")
                h += 1
                continue
            if h > 0:
                path.append("d")
                h -= 1
                continue
            # k = 0 dead end: no step is legal, fall through to backtrack
        while path:
            c = path.pop()
            if c == "u":
                h -= 1
                if h > 0:  # retry this depth with the other step
                    path.append("d")
                    h -= 1
                    break
            else:
                h += 1
        else:
            return


def heights(path: str) -> list:
    """Height profile of a path: length+1 values starting at 0."""
    out = [0]
    h = 0
    for pos, c in enumerate(path):
        if c == "u":
            h += 1
        elif c == "d":
            h -= 1
        else:
            raise ValueError(f"bad step {c!r} at position {pos}; expected 'u' or 'd'")
        out.append(h)
    return out


def factorize(path: str, k: int) -> list:
    """Split a bounded path ending at height i into i+1 Dyck factors.

    Cutting just before the final departure from each of the levels
    0..i-1 writes the path as P1 u P2 u ... u P_{i+1}; the original is
    recovered by "u".join(factors).  Factor number s, read relative to its
    baseline s-1, is a Dyck path (returns to its baseline, never dips below)
    of height at most k+1-s.  Raises ValueError if the path leaves [0, k]
    or contains characters other than 'u'/'d'.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    prof = heights(path)
    for t, h in enumerate(prof):
        if h < 0:
            raise ValueError(f"path dips below the axis after {t} steps")
        if h > k:
            raise ValueError(f"path exceeds height {k} after {t} steps")
    i = prof[-1]
    last_at = {}
    for t, h in enumerate(prof):
        last_at[h] = t
    factors = []
    prev = 0
    for level in range(i):
        cut = last_at[level]
        assert path[cut] == "u"  # the final departure from a level is an up-step
        factors.append(path[prev:cut])
        prev = cut + 1
    factors.append(path[prev:])
    return factors
