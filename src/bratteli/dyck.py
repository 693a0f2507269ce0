"""Brute-force oracle over height-bounded step sequences.

A path is a string over {'u', 'd'} read left to right; the height after a
prefix is (#u - #d) and must stay in [0, k].  ``enumerate_count`` counts
paths by exhaustive enumeration, one frontier byte per bounded path and no
two merged: the slow-but-obviously-correct reference the other backends are
checked against, admitted by the nodes it visits (``admit_enumeration``).
``iter_paths`` yields the paths in lexicographic order.  ``factorize`` cuts
a bounded path ending at height i at the final departure from each of the
levels 0..i-1 into i+1 Dyck paths, piece s (1-based) of height at most
k+1-s: the combinatorial heart of the generating function's product form.
"""

from .diagram import MAX_ENTRIES, _check_budget, _check_nonneg, dp_columns, is_vertex

# a step up and a step down of a height held in one byte; the height leaving [0, level] is
# deleted first, so neither table's wrap-around entry is ever read
_UP = bytes(range(1, 256)) + b"\x00"
_DOWN = b"\x00" + bytes(range(255))


def endpoint_tallies(k: int, jmax: int) -> list:
    """t[j][h] = number of paths of j <= jmax steps in [0, k] ending at height h <= min(k, jmax).

    A breadth-first enumeration of the search tree to depth jmax: the frontier holds one byte
    per bounded path of the current depth, its end height, and the next depth is every path's
    up-child followed by every path's down-child.  Paths that end at the same height are never
    merged, so the enumeration visits each node, a path, once, and tallies it at its own depth.
    Nothing caps the search; admit_enumeration admits it.  A level min(k, jmax) above 255 does
    not fit in a byte, and its tree has more than 2**255 nodes: ValueError, before any work.
    """
    _check_nonneg(k=k, jmax=jmax)
    level = min(k, jmax)
    if level > 255:
        raise ValueError(f"level {level} is above 255: its tree has more than 2**255 paths")
    tallies = [[0] * (level + 1) for _ in range(jmax + 1)]
    frontier, top = b"\x00", bytes([level])
    for depth, row in enumerate(tallies):
        for h in range(depth % 2, min(level, depth) + 1, 2):
            row[h] = frontier.count(h)
        if depth < jmax:
            frontier = frontier.translate(_UP, top) + frontier.translate(_DOWN, b"\x00")
    return tallies


def admit_enumeration(k: int, jmax: int) -> int:
    """The nodes endpoint_tallies(k, jmax) visits, its paths of every length up to jmax, plus
    150 a depth, which costs about 1 us however few paths it holds: TableBudgetError past 64 *
    MAX_ENTRIES.  From level 28 on the sum passes that by column 28, so a band of 33 heights,
    exact that far, makes a refusal at k = 10**6 as cheap as at k = 32."""
    _check_nonneg(k=k, jmax=jmax)
    nodes = 150 * (jmax + 1)
    for col in dp_columns(min(k, 32), jmax):
        nodes += sum(col)
        if nodes > 64 * MAX_ENTRIES:
            break
    _check_budget(f"enumeration for k={k} to depth {jmax} visits at least", nodes, "nodes", 64)
    return nodes


def endpoint_counts(k: int, length: int) -> list:
    """endpoint_tallies(k, length)[-1], paths of ``length`` steps by end height, once admitted."""
    _check_nonneg(k=k, length=length)
    return endpoint_tallies(k, length)[-1]


def enumerate_count(k: int, i: int, j: int) -> int:
    """Count paths from the origin to (i, j) by exhaustive enumeration.

    The search holds every bounded prefix, one frontier byte each, and
    tallies the endpoints at depth j, at level min(k, j) since no path of j
    steps climbs higher.  An unreachable (i, j) is 0 at any j; at a vertex
    the search is first admitted by admit_enumeration, which counts its nodes.
    """
    _check_nonneg(k=k, i=i, j=j)
    level = min(k, j)
    if not is_vertex(level, i, j):
        return 0
    admit_enumeration(k, j)
    return endpoint_counts(level, j)[i]


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
