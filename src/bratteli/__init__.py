"""Exact path counts in Bratteli diagrams for su(2) level-k fusion.

The number of directed paths of length j ending at height i counts the
fusion-tree states of j spin-1/2 anyons at level k; this package computes
it five independent ways (dynamic programming, adjacency-matrix powers,
brute-force enumeration, exact rational generating functions, and an
arbitrary-precision spectral sum) and cross-checks them against each other
and against the closed forms known for k <= 5 and k = infinity.
"""

from .closed_forms import UNBOUNDED, catalan, closed_form, count_unbounded, fibonacci
from .diagram import (
    CountTable,
    TableBudgetError,
    adjacency_power_row,
    build_table,
    count_dp,
    count_matrix_power,
    is_vertex,
    table_size,
)
from .dyck import (
    endpoint_counts,
    enumerate_count,
    factorize,
    heights,
    iter_paths,
)
from .genfunc import (
    GF_ONE,
    GF_ZERO,
    LinearRecurrence,
    RationalGF,
    bounded_dyck_gf,
    chebyshev_u,
    decimate,
    gf_closed_form,
    gf_inflate,
    gf_inv,
    gf_mul,
    gf_product_form,
    gf_shift,
    gf_sub,
    make_gf,
    poly_eval,
    recurrence_from_gf,
    series_coeffs,
    u_reversed,
)
from .spectral import (
    PrecisionExhaustedError,
    count_spectral,
    empirical_rate,
    growth_rate,
    residue_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "UNBOUNDED",
    "catalan",
    "closed_form",
    "count_unbounded",
    "fibonacci",
    "CountTable",
    "TableBudgetError",
    "adjacency_power_row",
    "build_table",
    "count_dp",
    "count_matrix_power",
    "is_vertex",
    "table_size",
    "endpoint_counts",
    "enumerate_count",
    "factorize",
    "heights",
    "iter_paths",
    "GF_ONE",
    "GF_ZERO",
    "LinearRecurrence",
    "RationalGF",
    "bounded_dyck_gf",
    "chebyshev_u",
    "decimate",
    "gf_closed_form",
    "gf_inflate",
    "gf_inv",
    "gf_mul",
    "gf_product_form",
    "gf_shift",
    "gf_sub",
    "make_gf",
    "poly_eval",
    "recurrence_from_gf",
    "series_coeffs",
    "u_reversed",
    "PrecisionExhaustedError",
    "count_spectral",
    "empirical_rate",
    "growth_rate",
    "residue_decomposition",
    "__version__",
]
