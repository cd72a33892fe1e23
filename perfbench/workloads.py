"""The four workloads: seeded inputs, set-up, one op, its oracle.

Each workload is a class with
  - `__init__(seed, pass_no, ops)`: the set-up, which makes the pass's
    inputs from the seed and runs the cold enumeration stage, and sets
    `items`, `setup_ok` and `setup_output`;
  - `op(item)`: one exact certificate, returning (ok, canonical output).
Run sizes, tail percentiles and traced functions per workload are in
`run.py`.

The inputs of pass k depend only on (seed, k), so a pass can be repeated
exactly in a fresh process.  Only generated inputs reach the program.
"""

from __future__ import annotations

from math import comb
from random import Random

from hilbdiag import (borel, embeddings, gridcore, groebner, h33, tangent,
                      treespace, verify)


def _gens(ideal):
    """Canonical text of a monomial ideal's minimal generators."""
    return [[list(v) + [e] for v, e in g.exps] for g in ideal.gens]


def _slice(order, pass_no, ops):
    """Pass `pass_no` of a seeded order: the next `ops` items, wrapping."""
    size = len(order)
    return [order[(pass_no * ops + j) % size] for j in range(ops)]


class Census:
    """Every 3x3 census ideal in seeded order, certified by K-polynomial."""

    def __init__(self, seed, pass_no, ops):
        census = h33.enumerate_h33()
        classes = h33.symmetry_classes(census)
        report = h33.table1_report(classes)
        self.setup_ok = (len(census) == 13824 and len(classes) == 16
                         and sum(c.orbit_size for c in classes) == 13824
                         and report.matches_published)
        self.setup_output = [[r.tangent, r.planar, r.stabilizer_order,
                              r.orbit_size, _gens(r.ideal)] for r in report.rows]
        order = list(range(len(census)))
        Random(seed).shuffle(order)
        self.items = [census[k] for k in _slice(order, pass_no, ops)]

    def op(self, cx):
        ideal = h33.complex_to_ideal(cx)
        ok = gridcore.series_equals_diagonal(ideal)
        return ok, [_gens(ideal), ok]


class Trees:
    """A seeded order of the 7348 trees with n <= 5 edges: tangent
    dimension by linear algebra against the vertex-degree formula."""

    COUNTS = {2: 4, 3: 32, 4: 400, 5: 6912}

    def __init__(self, seed, pass_no, ops):
        trees = []
        self.setup_ok = True
        for n, want in self.COUNTS.items():
            found = treespace.enumerate_trees(n)
            self.setup_ok &= len(found) == want
            trees.extend(found)
        self.setup_output = [len(trees)]
        order = list(range(len(trees)))
        Random(seed).shuffle(order)
        self.items = [trees[k] for k in _slice(order, pass_no, ops)]

    def op(self, tree):
        dim = tangent.tangent_dimension(treespace.tree_to_ideal(tree))
        formula = treespace.tree_tangent_dim(tree)
        smooth = treespace.is_smooth(tree)
        ok = dim == formula and smooth == (formula == 3 * (tree.n - 1))
        return ok, [tree.key(), dim, smooth]


class Gins:
    """Seeded 3x3 generic-initial trials, generic and triangular 5:1."""

    D = N = 3
    MAX_REDRAWS = 20

    def __init__(self, seed, pass_no, ops):
        self.z = borel.build_z(self.D, self.N)
        self.setup_ok = True
        self.setup_output = [_gens(self.z)]
        first = pass_no * ops
        # trial g draws everything from its own generator, seeded by (seed, g)
        self.items = [(seed * 10 ** 6 + g, "borel" if g % 6 == 5 else "generic")
                      for g in range(first, first + ops)]

    def op(self, item):
        trial_seed, kind = item
        d, n = self.D, self.N
        rng = Random(trial_seed)
        shape = "full" if kind == "generic" else "borel"
        mats = [groebner.random_invertible(d, rng, shape) for _ in range(n)]
        for redraws in range(self.MAX_REDRAWS + 1):
            w = groebner.random_weights(d, n, rng, hierarchic=(kind == "borel"))
            try:
                ideal = groebner.weight_initial_route(w, mats, d, n)
                break
            except groebner.IndecisiveWeights:
                continue
        else:
            return False, [kind, "indecisive"]
        ok = ideal.is_squarefree() and gridcore.series_equals_diagonal(ideal)
        if kind == "borel":
            ok = ok and ideal == self.z
        return ok, [kind, redraws, _gens(ideal), ok]


class Checks:
    """The six light acceptance checks, one op per sub-check; the seed
    picks the deligne weights and the collineation matrices."""

    DELIGNE = ((2, 2), (2, 3), (2, 4), (3, 3))
    DELIGNE_RUNS = 3
    # Two samples per round, not the acceptance check's 20: twenty ops of
    # near-equal cost put a tight cluster at the median, and when the
    # machine's speed changes during a run the pooled median jumps between
    # the cluster's fast and slow copies (IQR/median 0.29 over 6 seeds,
    # against 0.09 with two samples).
    COLLINEATION_SAMPLES = 2

    def __init__(self, seed, pass_no, ops):
        rng = Random(seed * 10 ** 6 + pass_no)
        items = [("borel-ideal", d, n) for d in range(2, 6) for n in range(2, 6)]
        items += [("hilbert-data", d, n) for d in range(2, 5) for n in range(2, 5)]
        items += [("chain-tangent", d, n)
                  for d, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))]
        items += [("component-rep", name) for name in
                  ("extra-14", "extra-13", "cubic-family")]
        items += [("deligne", d, n, rng.randrange(2 ** 32))
                  for d, n in self.DELIGNE for _ in range(self.DELIGNE_RUNS)]
        items += [("collineation", rng.randrange(2 ** 32))
                  for _ in range(self.COLLINEATION_SAMPLES)]
        items.append(("tree-cubic", 3))
        self.setup_ok = True
        self.setup_output = []
        self.items = items[:ops]

    def op(self, item):
        return getattr(self, "_" + item[0].replace("-", "_"))(*item[1:])

    def _borel_ideal(self, d, n):
        z = borel.build_z(d, n)
        steps = borel.shelling(d, n)
        h = borel.shelling_h_polynomial(steps)
        ok = (z == borel.z_generators_direct(d, n)
              and max(g.total_degree for g in z.gens) == min(d, n)
              and len(borel.u_set(d, n)) == comb(d + n - 2, d - 1)
              and h == borel.h_closed_form(d, n))
        return ok, [_gens(z), list(h)]

    def _hilbert_data(self, d, n):
        # the same degrees and closed forms as verify.check_hilbert_data
        z = borel.build_z(d, n)
        ok = all(gridcore.hf_at(z, u) == gridcore.target_hf(d, u)
                 for u in verify._degrees_up_to(n, 6))
        spec = gridcore.k_polynomial(z).specialize()
        want = verify._poly_mul(borel.h_closed_form(d, n),
                                verify._one_minus_z_pow(d * n - n - d + 1))
        ok = ok and list(spec) == list(want)
        return ok, [list(spec), ok]

    def _chain_tangent(self, d, n):
        ideal = tangent.chain_ideal(d, n)
        dim = tangent.tangent_dimension(ideal)
        ok = (dim == (d * d - 1) * (n - 1)
              and tangent.verify_basis(ideal, tangent.chain_basis(d, n)))
        return ok, [dim, ok]

    def _component_rep(self, name):
        gens = {"extra-14": h33.rep_ideal_extra14,
                "extra-13": h33.rep_ideal_extra13,
                "cubic-family": lambda: h33.cubic_family_ideal(1, 0, 0, 1)}[name]()
        check = h33.hilbert_function_check(gens, 4, name)
        return check.ok, [check.degrees_checked, len(check.failures)]

    def _deligne(self, d, n, seed):
        weight_route, fiber = verify.deligne_route_pair(d, n, seed)
        ok = weight_route == fiber and fiber.is_squarefree()
        if ok and d == 2:
            treespace.ideal_to_tree(fiber)  # raises if not a tree ideal
        return ok, [_gens(fiber), ok]

    def _collineation(self, seed):
        rng = Random(seed)
        u = groebner.random_invertible(3, rng)
        v = groebner.random_invertible(3, rng)
        values = embeddings.plucker_param(u, v)
        counts = embeddings.plucker_classification_counts(values)
        cm = embeddings.collineation_matrices(embeddings.uv_coeff_matrix(u, v))
        ok = (counts == (6, 12, 66)
              and all(value == 0 for value, pattern in values.values()
                      if pattern == "zero")
              and cm.rank_first <= 8 and cm.rank_second <= 8)
        return ok, [list(counts), cm.rank_first, cm.rank_second]

    def _tree_cubic(self, n):
        ok = all(embeddings.x23_cubic_check(
            embeddings.tree_ideal_coeffs(treespace.tree_to_ideal(t)))
            for t in treespace.enumerate_trees(n))
        return ok, [ok]


WORKLOADS = {"census": Census, "trees": Trees, "gins": Gins, "checks": Checks}
