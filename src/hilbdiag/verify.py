"""The acceptance suite: one callable per criterion, shared by the CLI
`verify-all` subcommand and the test suite.

Every check is exact, and the sampled ones use the fixed seed SEED.  A
check's body gets a `fail` callback: it calls `fail(message)` once for
each sub-check that does not hold, and returns a one-line summary of what
it covered.  `_run` times the body and makes the CheckResult: it passes
when nothing failed, and its `details` are the failure messages, or else
the summary alone.  An exception in a body is one more failure, reported
as `error: <repr>`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
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


SEED = 20260809


def _run(name, body):
    t0 = time.time()
    failures = []
    try:
        summary = body(failures.append)
    except Exception as exc:  # an exception is a failure with a reason
        failures.append("error: %r" % (exc,))
    return CheckResult(name, not failures, time.time() - t0,
                       failures or [summary])


def check_borel_ideal() -> CheckResult:
    """Two generator routes agree, shelling and h-polynomial, 2 <= d,n <= 5."""
    def body(fail):
        for d in range(2, 6):
            for n in range(2, 6):
                z_int = borel.build_z(d, n)
                if z_int != borel.z_generators_direct(d, n):
                    fail("generator routes differ at (%d,%d)" % (d, n))
                if max(g.total_degree for g in z_int.gens) != min(d, n):
                    fail("max generator degree wrong at (%d,%d)" % (d, n))
                if len(borel.u_set(d, n)) != comb(d + n - 2, d - 1):
                    fail("|U| wrong at (%d,%d)" % (d, n))
                steps = borel.shelling(d, n)
                if borel.shelling_h_polynomial(steps) != borel.h_closed_form(d, n):
                    fail("shelling h-vector wrong at (%d,%d)" % (d, n))
        return "16 grid sizes: generators, degrees, |U|, shellings"
    return _run("borel-ideal", body)


def check_hilbert_data() -> CheckResult:
    """Hilbert function of Z and the specialized K-polynomial identity."""
    def body(fail):
        count = 0
        for d in range(2, 5):
            for n in range(2, 5):
                z = borel.build_z(d, n)
                for u in _degrees_up_to(n, 6):
                    count += 1
                    if hf_at(z, u) != target_hf(d, u):
                        fail("hf mismatch at (%d,%d) u=%r" % (d, n, u))
                spec = k_polynomial(z).specialize()
                expect = _poly_mul(borel.h_closed_form(d, n),
                                   _one_minus_z_pow(d * n - n - d + 1))
                if list(spec) != list(expect):
                    fail("specialized K-polynomial wrong at (%d,%d)" % (d, n))
        return "%d Hilbert values and 9 series identities" % count
    return _run("hilbert-data", body)


def check_squarefree_degenerations() -> CheckResult:
    """Seeded initial-ideal sampling: always squarefree with the right
    series; triangular tuples reproduce the Borel-fixed ideal."""
    def body(fail):
        total = 0
        for d in (2, 3):
            for n in (2, 3):
                rep = groebner.gin_sample(d, n, 25, seed=SEED + 10 * d + n,
                                          borel_trials=5)
                total += len(rep.trials)
                if not rep.all_ok:
                    fail("failures at (%d,%d)" % (d, n))
        return "%d trials squarefree/series-equal, triangular ones hit Z" % total
    return _run("squarefree-gins", body)


def check_chain_tangent() -> CheckResult:
    """Tangent dimension and explicit basis at the chain ideal."""
    def body(fail):
        for d, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            M = tangent.chain_ideal(d, n)
            if tangent.tangent_dimension(M) != (d * d - 1) * (n - 1):
                fail("dimension wrong at (%d,%d)" % (d, n))
            if not tangent.verify_basis(M, tangent.chain_basis(d, n)):
                fail("basis not independent+spanning at (%d,%d)" % (d, n))
        return "dimensions (d^2-1)(n-1) and bases at 5 grid sizes"
    return _run("chain-tangent", body)


def check_tree_space() -> CheckResult:
    """Counts, tangent formula against linear algebra, smoothness, moves,
    and Z as the only Borel-fixed tree ideal for each n <= 5."""
    def body(fail):
        expected = {2: 4, 3: 32, 4: 400, 5: 6912}
        for n, want in expected.items():
            got = len(treespace.enumerate_trees(n))
            if got != want:
                fail("count at n=%d is %d, want %d" % (n, got, want))
        for n in range(2, 6):
            dim = 3 * (n - 1)
            fixed = []
            compare = True  # formula against algebra, up to the first mismatch
            for t in treespace.enumerate_trees(n):
                ideal = treespace.tree_to_ideal(t)
                if borel.is_borel_fixed(ideal):
                    fixed.append(ideal)
                if not compare:
                    continue
                formula = treespace.tree_tangent_dim(t)
                if formula != tangent.tangent_dimension(ideal):
                    fail("tangent mismatch at n=%d: %r" % (n, t))
                    compare = False
                elif treespace.is_smooth(t) != (formula == dim):
                    fail("smoothness mismatch at n=%d: %r" % (n, t))
                    compare = False
            if fixed != [borel.build_z(2, n)]:
                fail("%d Borel-fixed tree ideals at n=%d, want only Z"
                     % (len(fixed), n))
        g3 = treespace.moves_graph(3)
        if len(g3.nodes) != 32:
            fail("moves graph has %d nodes" % len(g3.nodes))
        swaps = g3.edge_count("swap")
        if swaps != 24:
            fail("expected 24 swap edges, got %d" % swaps)
        return ("counts 4/32/400/6912, tangents for 7348 trees, "
                "Z the only Borel-fixed tree ideal, 24 swap edges at n=3")
    return _run("tree-space", body)


def check_h33_census() -> CheckResult:
    """13824 complexes, 16 classes, published class data, series membership,
    and Z as the only Borel-fixed census ideal."""
    def body(fail):
        census = h33.enumerate_h33()
        if len(census) != 13824:
            fail("census size %d" % len(census))
        classes = h33.symmetry_classes(census)
        if len(classes) != 16:
            fail("%d symmetry classes" % len(classes))
        if sum(c.orbit_size for c in classes) != 13824:
            fail("orbit sizes do not add up")
        if not h33.table1_report(classes).matches_published:
            fail("class data differ from the published census")
        bad = 0
        fixed = []
        for cx in census:
            ideal = h33.complex_to_ideal(cx)
            if not series_equals_diagonal(ideal):
                bad += 1
            if borel.is_borel_fixed(ideal):
                fixed.append(ideal)
        if bad:
            fail("%d ideals fail the series test" % bad)
        if fixed != [borel.build_z(3, 3)]:
            fail("%d Borel-fixed census ideals, want only Z" % len(fixed))
        return ("13824 ideals, 16 classes, class data match, "
                "all series-equal, Z the only Borel-fixed one")
    return _run("h33-census", body)


def check_component_reps() -> CheckResult:
    """Hilbert functions of the extra-component representative ideals."""
    def body(fail):
        for chk in h33.component_rep_checks(bound=4):
            if not chk.ok:
                fail("%s fails at %r" % (chk.name, chk.failures[:2]))
        return "3 representative ideals, all |u| <= 4 degrees"
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


def check_deligne_routes() -> CheckResult:
    """Saturation route equals weight route; fibers at d=2 are tree ideals."""
    def body(fail):
        configs = [(2, 2), (2, 3), (2, 4), (3, 3)]
        for d, n in configs:
            for k in range(3):
                iw, fib = deligne_route_pair(d, n, SEED + 100 * d + 10 * n + k)
                if iw != fib:
                    fail("routes differ at (%d,%d) run %d" % (d, n, k))
                    continue
                if not fib.is_squarefree():
                    fail("fiber not squarefree at (%d,%d)" % (d, n))
                if d == 2:
                    try:
                        treespace.ideal_to_tree(fib)
                    except treespace.NotATreeIdeal as exc:
                        fail("fiber is not a tree ideal: %r" % exc)
        return ("%d seeded configurations, routes agree, "
                "d=2 fibers are trees" % (3 * len(configs)))
    return _run("deligne-routes", body)


def check_collineations() -> CheckResult:
    """Plucker classification, rank bounds, and the printed cubic."""
    def body(fail):
        rng = Random(SEED)
        for _ in range(20):
            U = groebner.random_invertible(3, rng)
            V = groebner.random_invertible(3, rng)
            vals = embeddings.plucker_param(U, V)
            counts = embeddings.plucker_classification_counts(vals)
            if counts != (6, 12, 66):
                fail("classification %r" % (counts,))
            for triple, (value, pattern) in vals.items():
                if pattern == "zero" and value != 0:
                    fail("zero pattern with nonzero value at %r" % (triple,))
            cm = embeddings.collineation_matrices(embeddings.uv_coeff_matrix(U, V))
            if cm.rank_first > 8 or cm.rank_second > 8:
                fail("rank exceeds 8")
        for t in treespace.enumerate_trees(3):
            coeffs = embeddings.tree_ideal_coeffs(treespace.tree_to_ideal(t))
            if not embeddings.x23_cubic_check(coeffs):
                fail("tree coefficients fail the cubic: %r" % (t,))
        return ("20 samples: counts (6,12,66), ranks <= 8, "
                "cubic vanishes on 32 trees")
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


def verify_all(only=None) -> int:
    """Run the acceptance checks; returns a process exit code."""
    failures = 0
    for name, fn in ALL_CHECKS:
        if only and name not in only:
            continue
        result = fn()
        print(result.line())
        if not result.passed:
            failures += 1
    return 1 if failures else 0


def _degrees_up_to(n, bound):
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
