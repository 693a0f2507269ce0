"""Exact path counts in Bratteli diagrams for su(2) level-k fusion.

The number of directed paths of length j ending at height i counts the
fusion-tree states of j spin-1/2 anyons at level k; this package computes
it five independent ways (dynamic programming, adjacency-matrix powers,
brute-force enumeration, exact rational generating functions, and an
arbitrary-precision spectral sum) and cross-checks them against each other
and against the closed forms known for k <= 5 and k = infinity.  The rest
of the API lives in the submodules.
"""

from .closed_forms import catalan, closed_form, count_unbounded
from .diagram import build_table, count_dp
from .dyck import factorize, heights, iter_paths
from .genfunc import (
    chebyshev_u,
    decimate,
    gf_closed_form,
    gf_inv,
    gf_shift,
    gf_sub,
    make_gf,
    poly_eval,
    recurrence_from_gf,
    u_reversed,
)
from .spectral import count_spectral, empirical_rate, growth_rate, residue_decomposition

__version__ = "0.1.0"

__all__ = [
    "catalan",
    "closed_form",
    "count_unbounded",
    "build_table",
    "count_dp",
    "factorize",
    "heights",
    "iter_paths",
    "chebyshev_u",
    "decimate",
    "gf_closed_form",
    "gf_inv",
    "gf_shift",
    "gf_sub",
    "make_gf",
    "poly_eval",
    "recurrence_from_gf",
    "u_reversed",
    "count_spectral",
    "empirical_rate",
    "growth_rate",
    "residue_decomposition",
    "__version__",
]
