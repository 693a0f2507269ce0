"""Acceptance suite: nine end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
without -s pytest still runs everything and shows the lines for failures.
Each check computes its result first, prints ``[n/9] PASS ...`` or
``[n/9] FAIL ...`` with the measured time where a budget applies, and only
then asserts, so a red run still reports the verdicts it reached.
"""

import random
import time

import mpmath

from bratteli import (
    build_table,
    catalan,
    chebyshev_u,
    closed_form,
    count_dp,
    count_spectral,
    count_unbounded,
    decimate,
    empirical_rate,
    factorize,
    gf_closed_form,
    gf_inv,
    gf_shift,
    gf_sub,
    growth_rate,
    heights,
    iter_paths,
    make_gf,
    poly_eval,
    recurrence_from_gf,
    residue_decomposition,
    u_reversed,
)
from bratteli.cli import BACKENDS, count_via
from bratteli.genfunc import GF_ONE, bounded_dyck_gf, poly_shift, poly_sub

from frozen_tables import K2_TABLE, K3_TABLE


def _report(num, ok, label, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[{num}/9] {status} {label}{suffix}")


def _sweep_values(k, jmax, backend):
    """Every in-diagram count for one level, through one backend, by vertex."""
    columns = BACKENDS[backend][1](k, jmax)
    return {(i, j): col[i] for j, col in enumerate(columns) for i in range(j % 2, min(k, j) + 1, 2)}


def test_1_frozen_tables_through_all_five_backends():
    t0 = time.perf_counter()
    bad = []
    for k, frozen in ((2, K2_TABLE), (3, K3_TABLE)):
        for (i, j), want in frozen.items():
            for backend in BACKENDS:
                got = count_via(backend, k, i, j)
                if got != want:
                    bad.append((backend, k, i, j, want, got))
    elapsed = time.perf_counter() - t0
    n = len(K2_TABLE) + len(K3_TABLE)
    ok = not bad and elapsed < 1.0
    _report(1, ok, f"all five backends reproduce {n} hand-checked counts", elapsed)
    assert not bad, bad[:5]
    assert elapsed < 1.0


def test_2_exhaustive_cross_backend_sweeps():
    t0 = time.perf_counter()
    bad = []
    compared = 0
    for k in range(7):
        ref = _sweep_values(k, 18, "dp")
        for backend in ("matrix", "gf", "spectral", "dyck"):
            other = _sweep_values(k, 18, backend)
            compared += len(ref)
            bad.extend((backend, k) + key for key in ref if ref[key] != other[key])
    for k in range(11):
        ref = _sweep_values(k, 200, "dp")
        for backend in ("matrix", "gf", "spectral"):
            other = _sweep_values(k, 200, backend)
            compared += len(ref)
            bad.extend((backend, k) + key for key in ref if ref[key] != other[key])
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    _report(
        2,
        ok,
        f"{compared} agreements: five backends to length 18, four to length 200",
        elapsed,
    )
    assert not bad, bad[:5]
    assert elapsed < 120.0


def test_3_closed_forms_match_dp_exactly():
    bad = []
    checked = 0
    for k in (1, 2, 3, 4, 5):
        for j in range(61):
            for i in range(k + 1):
                checked += 1
                if closed_form(k, i, j) != count_dp(k, i, j):
                    bad.append((k, i, j))
    ok = not bad
    _report(3, ok, f"levels 1..5 closed forms equal the DP on all {checked} queries")
    assert not bad, bad[:5]


def test_4_level5_axis_series_and_recurrence():
    g, offset = decimate(gf_closed_form(5, 0))
    want = make_gf([1, -4, 3], [1, -5, 6, -1])
    rec = recurrence_from_gf(g)
    shape = (rec.order, rec.coeffs, rec.initial)
    replay = rec.terms(6)
    ok = (
        offset == 0
        and g == want
        and shape == (3, (5, -6, 1), (1, 1, 2))
        and replay == [1, 1, 2, 5, 14, 42, 131]
    )
    _report(
        4,
        ok,
        "level-5 axis counts have series (1-4t+3t^2)/(1-5t+6t^2-t^3), "
        "a_m = 5a_{m-1} - 6a_{m-2} + a_{m-3}",
    )
    assert offset == 0
    assert g == want
    assert shape == (3, (5, -6, 1), (1, 1, 2))
    assert replay == [1, 1, 2, 5, 14, 42, 131]


def test_5_residues_rebuild_chebyshev_ratios():
    # terms hold (w_r, 2*rho_r); halving both recovers the residues and the
    # poles of the polynomial ratio itself
    rng = random.Random(1081)
    bad = []
    points = 0
    ratios = 0
    with mpmath.workprec(128):
        tol = mpmath.mpf("1e-12")
        guard = mpmath.mpf("1e-2")
        for k in range(9):
            denom = chebyshev_u(k + 1)
            for i in range(k + 1):
                dec = residue_decomposition(k, i, bits=128)
                numer = chebyshev_u(k - i)
                ratios += 1
                accepted = 0
                while accepted < 20:
                    x = mpmath.mpf(rng.uniform(-2.0, 2.0))
                    if any(abs(x - pole / 2) <= guard for _, pole in dec.terms):
                        continue
                    direct = poly_eval(numer, x) / poly_eval(denom, x)
                    rebuilt = sum((w / 2) / (x - pole / 2) for w, pole in dec.terms)
                    if abs(direct - rebuilt) >= tol:
                        bad.append((k, i, float(x), float(abs(direct - rebuilt))))
                    accepted += 1
                    points += 1
    ok = not bad
    _report(5, ok, f"residues rebuild {ratios} Chebyshev ratios at {points} points to 1e-12")
    assert not bad, bad[:5]


def test_6_empirical_growth_matches_spectral_radius():
    bad = []
    with mpmath.workprec(128):
        tol = mpmath.mpf("1e-6")
        for k in range(1, 9):
            exact = growth_rate(k, bits=128)
            for i in (0, 1):
                emp = empirical_rate(k, i, 200, bits=128)
                if abs(emp - exact) >= tol:
                    bad.append((k, i, float(abs(emp - exact))))
    ok = not bad
    _report(6, ok, "length-200 count ratios match 2cos(pi/(k+2)) to 1e-6, levels 1..8")
    assert not bad, bad


def test_7_large_bound_reaches_unbounded_counts():
    bad = []
    checked = 0
    for j in range(41):
        for i in range(j % 2, j + 1, 2):
            want = count_unbounded(i, j)
            for k in (j, j + 1, j + 9):
                checked += 1
                if count_dp(k, i, j) != want:
                    bad.append((k, i, j))
    cats = [catalan(n) for n in range(31)]
    conv_ok = all(
        cats[n + 1] == sum(cats[t] * cats[n - t] for t in range(n + 1)) for n in range(30)
    )
    axis_ok = all(cats[n] == count_unbounded(0, 2 * n) for n in range(31))
    ok = not bad and conv_ok and axis_ok and cats[10] == 16796
    _report(
        7,
        ok,
        f"bounds k >= length give ballot numbers on {checked} queries; "
        "Catalan convolution holds to n=30",
    )
    assert not bad, bad[:5]
    assert conv_ok and axis_ok
    assert cats[10] == 16796


def test_8_structural_property_suite():
    rec_ok = True
    for k in range(9):
        table = build_table(k, 60)
        for j in range(1, 61):
            for i in range(k + 1):
                here = table.entries.get((i, j), 0)
                below = table.entries.get((i - 1, j - 1), 0)
                above = table.entries.get((i + 1, j - 1), 0)
                if here != below + above:
                    rec_ok = False

    parity_ok = all(
        count_dp(k, i, j) == 0
        for k in range(9)
        for i in range(k + 1)
        for j in range(21)
        if (i + j) % 2
    )

    poly_ok = all(
        u_reversed(m + 1) == poly_sub(u_reversed(m), poly_shift(u_reversed(m - 1), 2))
        for m in range(1, 64)
    )

    cf_ok = all(
        bounded_dyck_gf(k + 1) == gf_inv(gf_sub(GF_ONE, gf_shift(bounded_dyck_gf(k), 1)))
        for k in range(1, 33)
    )

    fact_ok = True
    cases = 0
    for k in range(7):
        for j in range(19):
            for path in iter_paths(k, j):
                end = heights(path)[-1]
                factors = factorize(path, k)
                cases += 1
                if "u".join(factors) != path or len(factors) != end + 1:
                    fact_ok = False
                    continue
                for s, factor in enumerate(factors, start=1):
                    profile = heights(factor)
                    if profile[-1] != 0 or max(profile) > k + 1 - s:
                        fact_ok = False

    ok = rec_ok and parity_ok and poly_ok and cf_ok and fact_ok
    _report(
        8,
        ok,
        "vertex recurrence to length 60, parity vanishing, polynomial three-term "
        f"to degree 64, continued-fraction law to level 33, {cases} bounded factorizations",
    )
    assert rec_ok
    assert parity_ok
    assert poly_ok
    assert cf_ok
    assert fact_ok


def test_9_spectral_sum_is_exact_at_length_300():
    t0 = time.perf_counter()
    via_spectral = count_spectral(12, 0, 300)
    via_dp = count_dp(12, 0, 300)
    elapsed = time.perf_counter() - t0
    ok = via_spectral == via_dp and elapsed < 1.0
    digits = len(str(via_dp))
    _report(9, ok, f"spectral sum nails the {digits}-digit count at level 12, length 300", elapsed)
    assert via_spectral == via_dp
    assert elapsed < 1.0
