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


MAX_LENGTH = 26  # enumerate_count's cap on j: the search tree has up to 2**j leaves


def endpoint_tallies(k: int, jmax: int) -> list:
    """t[j][h] = number of paths of j <= jmax steps staying in [0, k] and ending at height h.

    One walk over the search tree to depth jmax counts each node, a path, at
    its own depth.  Nothing caps the search; the caller bounds ``jmax``.
    """
    _check_nonneg(k=k, jmax=jmax)
    tallies = [[0] * (k + 1) for _ in range(jmax + 1)]

    def walk(h: int, depth: int) -> None:
        tallies[depth][h] += 1
        if depth < jmax:
            if h < k:
                walk(h + 1, depth + 1)
            if h > 0:
                walk(h - 1, depth + 1)

    walk(0, 0)
    return tallies


def endpoint_counts(k: int, length: int) -> list:
    """Paths of exactly ``length`` steps by endpoint height: endpoint_tallies(k, length)[-1].

    The caller bounds ``length`` (enumerate_count by MAX_LENGTH).
    """
    _check_nonneg(k=k, length=length)
    return endpoint_tallies(k, length)[-1]


def enumerate_count(k: int, i: int, j: int) -> int:
    """Count paths from the origin to (i, j) by exhaustive backtracking.

    The search explores every bounded prefix (u before d, so enumeration
    order is lexicographic) and checks the endpoint at depth j, at level
    min(k, j) since no path of j steps climbs higher.  ``j`` must not exceed
    MAX_LENGTH (26) since the tree has up to 2**j leaves.
    """
    _check_nonneg(k=k, i=i, j=j)
    if j > MAX_LENGTH:
        raise ValueError(f"j={j} exceeds the enumeration cap of {MAX_LENGTH} steps")
    level = min(k, j)
    return endpoint_counts(level, j)[i] if i <= level else 0


def iter_paths(k: int, length: int):
    """Yield every bounded path of the given length, in lexicographic order (u < d).

    A depth-first walk over an explicit stack of (prefix, height) pairs: the
    'u' child is pushed last so it is popped first.  It stays lazy, and
    enumerating a few million paths does not nest generators.
    """
    _check_nonneg(k=k, length=length)
    stack = [("", 0)]
    while stack:
        path, h = stack.pop()
        if len(path) == length:
            yield path
            continue
        if h > 0:
            stack.append((path + "d", h - 1))
        if h < k:
            stack.append((path + "u", h + 1))


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
    _check_nonneg(k=k)
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
