"""Seeded generators for the benchmark's workloads.

Each generator returns the ops of one pass: a list of dicts with the
``argv`` the CLI receives and the ``kind`` the checks and metrics use.  The
same seed gives the same ops.

The expensive shapes sit on fixed log-spaced grids: query's deep, wide and
gf points, the two largest tables and verify's kmax.  The seed draws
everything whose cost barely depends on it (the small counts, the wide ops'
heights, the smaller tables, jmax within a few steps) and the order.  A seeded shape of the expensive ops
would swing the work of a pass by more than the run-to-run noise: a single
`gf --k 164` costs 0.12 s at height 0 and 0.6 s at height k.  Seeded ranges
use jittered stratification: the range is cut into as many strata as there
are ops and one point is drawn uniformly inside each, which keeps the
stated marginal law.
"""

import math
import os
import random

WIDE_CELLS = 4_000_000
# deep op s pairs the s-th k with the DEEP_J[s]-th j and height k * DEEP_SHARE[s] / 5
DEEP_J = [2, 5, 0, 3, 1, 4]
DEEP_SHARE = [0, 3, 5, 1, 4, 2]


def grid(n: int, lo: float, hi: float) -> list:
    """The centres of n equal slices of [lo, hi] on a log scale."""
    return [lo * (hi / lo) ** ((s + 0.5) / n) for s in range(n)]


def strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list:
    """n points, the s-th drawn uniformly from the s-th of n equal slices of [lo, hi]."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    pts = [lo + (s + rng.random()) * (hi - lo) / n for s in range(n)]
    return [math.exp(p) for p in pts] if log else pts


def _height(rng: random.Random, k: int, j: int, miss: float = 0.1) -> int:
    """A target height: reachable, except with probability miss of the wrong parity."""
    top = min(k, j)
    i = rng.randrange(j % 2, top + 1, 2) if top >= j % 2 else 0
    return _other_parity(i, k) if rng.random() < miss else i


def _other_parity(i: int, k: int) -> int:
    return i + 1 if i < k else i - 1


def _count(kind: str, k: int, i: int, j: int, *extra: str) -> dict:
    argv = ["count", "--k", str(k), "--i", str(i), "--j", str(j),
            "--backend", "auto", "--verbose", *extra]
    return {"kind": kind, "argv": argv, "k": k, "i": i, "j": j}


def query(seed: int) -> list:
    """24 single-answer ops, shuffled: small, deep and wide counts and gf.

    The mix is the one a stream of about 50 interactive calls has, halved so
    that one pass takes about 7 s and a run repeats it several times.  About
    two thirds of the calls cost little more than start-up: the small counts
    and the deep and gf points that are answered at once.  So op_p75_s, a
    quantile over each op's median latency, lies on the cheapest of the
    dearer deep, wide and gf calls (0.2-0.3 s), which spread up to 1.5 s.
    """
    rng = random.Random(seed)
    ops = []
    # small: j < 100, k log-uniform in 1..100, one in ten unreachable; two
    # paranoid ones with j <= 14 go to dyck
    ks = strata(rng, 10, 1, 100, log=True)
    js = strata(rng, 10, 0, 100)
    rng.shuffle(js)
    for k, j in zip(ks, js):
        k, j = int(k), int(j)
        ops.append(_count("small", k, _height(rng, k, j), j))
    for k, j in zip(strata(rng, 2, 1, 20, log=True), strata(rng, 2, 0, 15)):
        k, j = int(k), int(j)
        ops.append(_count("paranoid", k, _height(rng, k, j), j, "--paranoid"))
    # deep: k log-spaced in 2..64, j log-spaced in 500..12000, paired by a
    # permutation that covers the (k, j) square.  The height is a fixed share
    # of k, as spectral's cost grows with k - i.  All are reachable: an
    # unreachable target costs nothing, so a seeded miss would move a pass's
    # tail by a whole op.
    js = grid(6, 500, 12000)
    for s, k in enumerate(grid(6, 2, 64)):
        k, j = round(k), round(js[DEEP_J[s]])
        i = k * DEEP_SHARE[s] // 5
        if (i + j) % 2:
            i = _other_parity(i, k)
        ops.append(_count("deep", k, i, j))
    # wide: k log-spaced in 1e4..1e6, j = min(40, WIDE_CELLS // k), so every
    # op fills at most WIDE_CELLS DP cells for an answer that needs j * j;
    # all are reachable, for the same reason as the deep ones
    for k in grid(3, 1e4, 1e6):
        k = round(k)
        j = min(40, WIDE_CELLS // k)
        ops.append(_count("wide", k, _height(rng, k, j, miss=0.0), j))
    # gf: k log-spaced in 20..250 at heights 0, k/2 and k, the outer two folded
    # to t = x**2
    for s, k in enumerate(grid(3, 20, 250)):
        k = round(k)
        i = k * s // 2
        even = s != 1
        argv = ["gf", "--k", str(k), "--i", str(i)] + (["--even"] if even else [])
        ops.append({"kind": "gf", "argv": argv, "k": k, "i": i, "even": even})
    rng.shuffle(ops)
    return ops


DEFAULT_BACKENDS = ["dp", "matrix", "gf", "spectral"]
ALL_BACKENDS = ["dp", "matrix", "gf", "spectral", "dyck"]
VERIFY_JOBS = min(2, os.cpu_count() or 1)


def _verify(kmax: int, jmax: int, backends: list) -> dict:
    argv = ["verify", "--kmax", str(kmax), "--jmax", str(jmax), "--jobs", str(VERIFY_JOBS)]
    if backends != DEFAULT_BACKENDS:
        argv += ["--backends", ",".join(backends)]
    return {"kind": "verify", "argv": argv, "kmax": kmax, "jmax": jmax, "backends": backends}


# (kmax, jmax) of the default-backend verify calls of a sweep pass: shapes
# that span kmax 6..12 and jmax 40..200, four of them of about equal cost
# (1.0-1.15 s on a 2-CPU machine)
SWEEP_SHAPES = [(8, 60), (6, 140), (12, 40), (6, 200), (10, 60), (8, 100), (12, 60)]


def sweep(seed: int) -> list:
    """Eight verify calls in seeded order: the default backends at the
    SWEEP_SHAPES, jmax moved by up to 3 % by the seed, and dyck's
    five-backend sweep at kmax 8, jmax 20.

    A pass is many calls of comparable cost rather than one large verify:
    with one dominant call, op_p75_s followed that call's per-call noise
    alone.  Half of the
    calls cost about the same, so op_p50_s and op_p75_s both fall inside
    that group, not on a step between two shapes.  The shapes are fixed: a
    seeded kmax would swing the work of a pass by far more than the
    run-to-run noise, and dyck's cost doubles with every two steps of jmax.
    """
    rng = random.Random(seed)
    ops = [_verify(kmax, round(jmax * (1 + rng.uniform(-0.03, 0.03))), DEFAULT_BACKENDS)
           for kmax, jmax in SWEEP_SHAPES]
    ops.append(_verify(8, 20, ALL_BACKENDS))
    rng.shuffle(ops)
    return ops


# (k, jmax) boxes for the table sizes, each drawn log-uniformly inside its
# box.  The boxes are narrow (about +-6 %): the median op of a pass is one of
# these tables, and a wider box moved op_p50_s between seeds by more than
# the run-to-run noise.
TABLE_BOXES = [
    ((115, 130), (460, 520)),
    ((26, 30), (1000, 1120)),
    ((7, 9), (230, 260)),
    ((145, 165), (120, 135)),
]
# the two largest shapes, fixed: about 9e4 and 6e4 entries, 60 and 75 MB pretty
TABLE_ANCHORS = [(200, 1000), (60, 2000)]


def table(seed: int) -> list:
    """Every format of six table sizes: the two anchors and four seeded boxes."""
    rng = random.Random(seed)
    sizes = list(TABLE_ANCHORS)
    for (klo, khi), (jlo, jhi) in TABLE_BOXES:
        sizes.append((round(strata(rng, 1, klo, khi, log=True)[0]),
                      round(strata(rng, 1, jlo, jhi, log=True)[0])))
    ops = [
        {"kind": "table", "argv": ["table", "--k", str(k), "--jmax", str(jmax), "--format", fmt],
         "k": k, "jmax": jmax, "format": fmt}
        for k, jmax in sizes for fmt in ("csv", "json", "pretty")
    ]
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list:
    if workload == "query":
        return query(seed)
    if workload == "sweep":
        return sweep(seed)
    return table(seed)
