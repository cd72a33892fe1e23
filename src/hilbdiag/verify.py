"""The acceptance suite: one callable per criterion, shared by the CLI
`verify-all` subcommand and the test suite.

Every check is exact; a check returns a CheckResult whose `details`
narrate the sub-checks and whose `passed` is the conjunction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb
from random import Random

from . import borel, embeddings, groebner, h33, tangent, treespace
from .gridcore import (hf_at, k_polynomial, series_equals_diagonal,
                       target_hf)


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    details: list = field(default_factory=list)

    def line(self) -> str:
        return "%s %-18s (%.1fs) %s" % (
            "PASS" if self.passed else "FAIL", self.name, self.elapsed,
            "; ".join(self.details))


def _run(name, fn):
    t0 = time.time()
    details = []
    try:
        passed = fn(details)
    except Exception as exc:  # an exception is a failure with a reason
        details.append("error: %r" % (exc,))
        passed = False
    return CheckResult(name=name, passed=passed, elapsed=time.time() - t0,
                       details=details)


def check_borel_ideal() -> CheckResult:
    """Two generator routes agree, shelling and h-polynomial, 2 <= d,n <= 5."""
    def body(details):
        ok = True
        for d in range(2, 6):
            for n in range(2, 6):
                z_int = borel.build_z(d, n)
                z_dir = borel.z_generators_direct(d, n)
                if z_int != z_dir:
                    details.append("generator routes differ at (%d,%d)" % (d, n))
                    ok = False
                if max(g.total_degree for g in z_int.gens) != min(d, n):
                    details.append("max generator degree wrong at (%d,%d)" % (d, n))
                    ok = False
                us = borel.u_set(d, n)
                if len(us) != comb(d + n - 2, d - 1):
                    details.append("|U| wrong at (%d,%d)" % (d, n))
                    ok = False
                steps = borel.shelling(d, n)
                if borel.shelling_h_polynomial(steps) != borel.h_closed_form(d, n):
                    details.append("shelling h-vector wrong at (%d,%d)" % (d, n))
                    ok = False
        if ok:
            details.append("16 grid sizes: generators, degrees, |U|, shellings")
        return ok
    return _run("borel-ideal", body)


def check_hilbert_data() -> CheckResult:
    """Hilbert function of Z and the specialized K-polynomial identity."""
    def body(details):
        ok = True
        count = 0
        for d in range(2, 5):
            for n in range(2, 5):
                z = borel.build_z(d, n)
                for u in _degrees_up_to(n, 6):
                    count += 1
                    if hf_at(z, u) != target_hf(d, u):
                        details.append("hf mismatch at (%d,%d) u=%r" % (d, n, u))
                        ok = False
                spec = k_polynomial(z).specialize()
                expect = _poly_mul(borel.h_closed_form(d, n),
                                   _one_minus_z_pow(d * n - n - d + 1))
                if list(spec) != list(expect):
                    details.append("specialized K-polynomial wrong at (%d,%d)" % (d, n))
                    ok = False
        if ok:
            details.append("%d Hilbert values and 9 series identities" % count)
        return ok
    return _run("hilbert-data", body)


def check_squarefree_degenerations(seed=20260809, trials_per_size=25) -> CheckResult:
    """Seeded initial-ideal sampling: always squarefree with the right
    series; triangular tuples reproduce the Borel-fixed ideal."""
    def body(details):
        ok = True
        total = 0
        for d in (2, 3):
            for n in (2, 3):
                rep = groebner.gin_sample(d, n, trials_per_size,
                                          seed=seed + 10 * d + n,
                                          borel_trials=5)
                total += len(rep.trials)
                if not rep.all_ok:
                    details.append("failures at (%d,%d)" % (d, n))
                    ok = False
        if ok:
            details.append("%d trials squarefree/series-equal, triangular ones hit Z"
                           % total)
        return ok
    return _run("squarefree-gins", body)


def check_chain_tangent() -> CheckResult:
    """Tangent dimension and explicit basis at the chain ideal."""
    def body(details):
        ok = True
        for d, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            M = tangent.chain_ideal(d, n)
            want = (d * d - 1) * (n - 1)
            if tangent.tangent_dimension(M) != want:
                details.append("dimension wrong at (%d,%d)" % (d, n))
                ok = False
            if not tangent.verify_basis(M, tangent.chain_basis(d, n)):
                details.append("basis not independent+spanning at (%d,%d)" % (d, n))
                ok = False
        if ok:
            details.append("dimensions (d^2-1)(n-1) and bases at 5 grid sizes")
        return ok
    return _run("chain-tangent", body)


def check_tree_space() -> CheckResult:
    """Counts, tangent formula against linear algebra, smoothness, moves,
    and Z as the only Borel-fixed tree ideal for each n <= 5."""
    def body(details):
        ok = True
        expected = {2: 4, 3: 32, 4: 400, 5: 6912}
        for n, want in expected.items():
            got = len(treespace.enumerate_trees(n))
            if got != want:
                details.append("count at n=%d is %d, want %d" % (n, got, want))
                ok = False
        for n in range(2, 6):
            dim = 3 * (n - 1)
            for t in treespace.enumerate_trees(n):
                formula = treespace.tree_tangent_dim(t)
                algebra = tangent.tangent_dimension(treespace.tree_to_ideal(t))
                if formula != algebra:
                    details.append("tangent mismatch at n=%d: %r" % (n, t))
                    ok = False
                    break
                if treespace.is_smooth(t) != (formula == dim):
                    details.append("smoothness mismatch at n=%d: %r" % (n, t))
                    ok = False
                    break
        for n in range(2, 6):
            fixed = [i for i in map(treespace.tree_to_ideal,
                                    treespace.enumerate_trees(n))
                     if borel.is_borel_fixed(i)]
            if fixed != [borel.build_z(2, n)]:
                details.append("%d Borel-fixed tree ideals at n=%d, want "
                               "only Z" % (len(fixed), n))
                ok = False
        g3 = treespace.moves_graph(3)
        if len(g3.nodes) != 32:
            details.append("moves graph has %d nodes" % len(g3.nodes))
            ok = False
        swaps = g3.edge_count("swap")
        if swaps != 24:
            details.append("expected 24 swap edges, got %d" % swaps)
            ok = False
        if ok:
            details.append("counts 4/32/400/6912, tangents for 7348 trees, "
                           "Z the only Borel-fixed tree ideal, "
                           "24 swap edges at n=3")
        return ok
    return _run("tree-space", body)


def check_h33_census() -> CheckResult:
    """13824 complexes, 16 classes, published class data, series membership,
    and Z as the only Borel-fixed census ideal."""
    def body(details):
        ok = True
        census = h33.enumerate_h33()
        if len(census) != 13824:
            details.append("census size %d" % len(census))
            ok = False
        classes = h33.symmetry_classes(census)
        if len(classes) != 16:
            details.append("%d symmetry classes" % len(classes))
            ok = False
        if sum(c.orbit_size for c in classes) != 13824:
            details.append("orbit sizes do not add up")
            ok = False
        report = h33.table1_report(classes)
        if not report.matches_published:
            details.append("class data differ from the published census")
            ok = False
        bad = 0
        fixed = []
        for cx in census:
            ideal = h33.complex_to_ideal(cx)
            if not series_equals_diagonal(ideal):
                bad += 1
            if borel.is_borel_fixed(ideal):
                fixed.append(ideal)
        if bad:
            details.append("%d ideals fail the series test" % bad)
            ok = False
        if fixed != [borel.build_z(3, 3)]:
            details.append("%d Borel-fixed census ideals, want only Z"
                           % len(fixed))
            ok = False
        if ok:
            details.append("13824 ideals, 16 classes, class data match, "
                           "all series-equal, Z the only Borel-fixed one")
        return ok
    return _run("h33-census", body)


def check_component_reps() -> CheckResult:
    """Hilbert functions of the extra-component representative ideals."""
    def body(details):
        ok = True
        for chk in h33.component_rep_checks(bound=4):
            if not chk.ok:
                details.append("%s fails at %r" % (chk.name, chk.failures[:2]))
                ok = False
        if ok:
            details.append("3 representative ideals, all |u| <= 4 degrees")
        return ok
    return _run("component-reps", body)


def _identity(d):
    return [[1 if a == b else 0 for b in range(d)] for a in range(d)]


def deligne_route_pair(d, n, seed):
    """Seeded diagonal-monomial configuration: returns (weight-route ideal,
    saturation-route ideal)."""
    rng = Random(seed)
    while True:
        w = [[rng.randint(0, 8) for _ in range(n)] for _ in range(d)]
        try:
            iw = groebner.weight_initial_route(w, [_identity(d)] * n, d, n)
            break
        except groebner.IndecisiveWeights:
            continue
    ring = groebner.grid_ring(d, n, ("z",))
    z = ring.var("z")
    mats = []
    for j in range(n):
        mj = max(w[i][j] for i in range(d))
        rows = []
        for i in range(d):
            zz = ring.one()
            for _ in range(mj - w[i][j]):
                zz = zz * z
            rows.append([zz if a == i else 0 for a in range(d)])
        mats.append(rows)
    fiber = groebner.special_fiber(mats, d, n)
    return iw, groebner.fiber_monomial_ideal(fiber, d, n)


def check_deligne_routes(seed=20260809) -> CheckResult:
    """Saturation route equals weight route; fibers at d=2 are tree ideals."""
    def body(details):
        ok = True
        configs = [(2, 2), (2, 3), (2, 4), (3, 3)]
        runs = 0
        for d, n in configs:
            for k in range(3):
                runs += 1
                iw, fib = deligne_route_pair(d, n, seed + 100 * d + 10 * n + k)
                if iw != fib:
                    details.append("routes differ at (%d,%d) run %d" % (d, n, k))
                    ok = False
                    continue
                if not fib.is_squarefree():
                    details.append("fiber not squarefree at (%d,%d)" % (d, n))
                    ok = False
                if d == 2:
                    try:
                        treespace.ideal_to_tree(fib)
                    except treespace.NotATreeIdeal as exc:
                        details.append("fiber is not a tree ideal: %r" % exc)
                        ok = False
        if ok:
            details.append("%d seeded configurations, routes agree, "
                           "d=2 fibers are trees" % runs)
        return ok
    return _run("deligne-routes", body)


def check_collineations(seed=20260809, samples=20) -> CheckResult:
    """Plucker classification, rank bounds, and the printed cubic."""
    def body(details):
        ok = True
        rng = Random(seed)
        for _ in range(samples):
            U = groebner.random_invertible(3, rng)
            V = groebner.random_invertible(3, rng)
            vals = embeddings.plucker_param(U, V)
            counts = embeddings.plucker_classification_counts(vals)
            if counts != (6, 12, 66):
                details.append("classification %r" % (counts,))
                ok = False
            for triple, (value, pattern) in vals.items():
                if pattern == "zero" and value != 0:
                    details.append("zero pattern with nonzero value at %r" % (triple,))
                    ok = False
            cm = embeddings.collineation_matrices(embeddings.uv_coeff_matrix(U, V))
            if cm.rank_first > 8 or cm.rank_second > 8:
                details.append("rank exceeds 8")
                ok = False
        for t in treespace.enumerate_trees(3):
            coeffs = embeddings.tree_ideal_coeffs(treespace.tree_to_ideal(t))
            if not embeddings.x23_cubic_check(coeffs):
                details.append("tree coefficients fail the cubic: %r" % (t,))
                ok = False
        if ok:
            details.append("%d samples: counts (6,12,66), ranks <= 8, "
                           "cubic vanishes on 32 trees" % samples)
        return ok
    return _run("collineations", body)


ALL_CHECKS = (
    ("borel-ideal", check_borel_ideal),
    ("hilbert-data", check_hilbert_data),
    ("squarefree-gins", check_squarefree_degenerations),
    ("chain-tangent", check_chain_tangent),
    ("tree-space", check_tree_space),
    ("h33-census", check_h33_census),
    ("component-reps", check_component_reps),
    ("deligne-routes", check_deligne_routes),
    ("collineations", check_collineations),
)


def verify_all(only=None, emit=print) -> int:
    """Run the acceptance checks; returns a process exit code."""
    failures = 0
    for name, fn in ALL_CHECKS:
        if only and name not in only:
            continue
        result = fn()
        emit(result.line())
        if not result.passed:
            failures += 1
    return 1 if failures else 0


def _degrees_up_to(n, bound):
    from itertools import product
    for u in product(range(bound + 1), repeat=n):
        if sum(u) <= bound:
            yield u


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _one_minus_z_pow(k):
    return [(-1) ** i * comb(k, i) for i in range(k + 1)]
