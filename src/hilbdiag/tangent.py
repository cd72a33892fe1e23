"""Tangent spaces at monomial ideals, via degree-zero homomorphisms.

A tangent vector at a monomial ideal I assigns to each minimal generator
g an element of the standard-monomial span of the quotient in the same
multidegree.  The constraints come from the pairwise syzygies: for
generators g, h with least common multiple L, the element
(L/g) phi(g) - (L/h) phi(h) must vanish in the quotient.  Pairwise
syzygies generate the whole syzygy module of a monomial ideal, so the
nullity of this linear system is the tangent space dimension.

The system is built on the guarded packed monomials of `gridcore.Packing`
(the layout and the divisibility test are in the `gridcore` docstring).
A lift (L/g) m has the multidegree of L, so none of its exponents
exceeds deg g + deg h <= 2D, D the largest generator degree, and the
packing is sized for 2D.  The lcm of two generators is then a guarded
compare and mask, L/g an integer subtract and (L/g) m an integer add.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .gridcore import Monomial, MonomialIdeal, Packing, multidegree
from .linalg import rank_sparse


def chain_ideal(d: int, n: int) -> MonomialIdeal:
    """The ideal of quadrics x_ik x_jl with i < j and k < l."""
    gens = [Monomial({(i, k): 1, (j, l): 1})
            for i in range(1, d + 1) for j in range(i + 1, d + 1)
            for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return MonomialIdeal(d, n, gens)


def syzygy_system(ideal: MonomialIdeal):
    """Unknown indexing and constraint rows for the tangent space at I.

    Returns (index, rows): `index` maps (generator, standard monomial)
    to an unknown number, and each row is a {unknown: coefficient} dict
    that must vanish.
    """
    top = max((g.total_degree for g in ideal.gens), default=0)
    packing = Packing(ideal, 2 * top)
    gens, packed, guard = ideal.gens, packing.gens, packing.guard
    inside = packing.inside
    by_degree = {}
    index = {}
    first = []   # the unknown number of each generator's first monomial
    lifts = []   # each generator's packed standard monomials
    for g in gens:
        u = multidegree(g, ideal.n)
        if u not in by_degree:
            by_degree[u] = packing.standard(u)
        basis, packed_basis = by_degree[u]
        first.append(len(index))
        for m in basis:
            index[(g, m)] = len(index)
        lifts.append(packed_basis)
    rows = []
    for a, b in combinations(range(len(gens)), 2):
        ga, gb = packed[a], packed[b]
        # guard bits of the fields where ga >= gb, widened to value masks
        ge = ((ga | guard) - gb) & guard
        ge -= ge >> (packing.width - 1)
        lcm = (ga & ge) | (gb & ~ge)
        la, lb = lcm - ga, lcm - gb
        # coefficient of the monomial w in (L/g) phi(g) - (L/h) phi(h);
        # the lift m -> (L/g) m is injective, so each w sees at most one
        # unknown from each side
        byw = {}
        k = first[a]
        for m in lifts[a]:
            byw[la + m] = {k: 1}
            k += 1
        k = first[b]
        for m in lifts[b]:
            w = lb + m
            row = byw.get(w)
            if row is None:
                byw[w] = {k: -1}
            else:
                row[k] = -1
            k += 1
        for w, row in byw.items():
            if not inside(w):  # else that coefficient is already zero
                rows.append(row)
    return index, rows


def tangent_dimension(ideal: MonomialIdeal) -> int:
    """Dimension of the space of degree-zero homomorphisms I -> R/I."""
    index, rows = syzygy_system(ideal)
    return len(index) - rank_sparse(rows)


class GradedHom:
    """A degree-preserving assignment generator -> quotient element."""

    __slots__ = ("images",)

    def __init__(self, images):
        # images: {generator monomial: {standard monomial: coefficient}}
        self.images = {g: {m: Fraction(c) for m, c in img.items() if c}
            for g, img in images.items()}

    def vector(self, index) -> dict:
        vec = {}
        for g, img in self.images.items():
            for m, c in img.items():
                vec[index[(g, m)]] = c
        return vec

    def __repr__(self):
        return "GradedHom(%d generators moved)" % sum(
            1 for img in self.images.values() if img)


def chain_basis(d: int, n: int) -> list:
    """The explicit tangent basis at the chain ideal.

    Three families: row shifts (images x_hk x_jl -> x_hk x_il for
    i <= h < j), column shifts (x_ik x_hl -> x_jk x_hl for i < h <= j),
    and the local swaps x_{i,k} x_{i+1,k+1} -> x_{i,k+1} x_{i+1,k}.
    Their count is (n-1)(d-1) + 2(n-1)*binom(d,2) = (d^2-1)(n-1).
    """
    maps = []

    def gen(i, k, j, l):
        return Monomial({(i, k): 1, (j, l): 1})

    # class rho: indices i < j, column l > 1
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for l in range(2, n + 1):
                images = {}
                for h in range(i, j):
                    for k in range(1, l):
                        images[gen(h, k, j, l)] = {gen(h, k, i, l): 1}
                maps.append(GradedHom(images))
    # class sigma: indices i < j, column k < n
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for k in range(1, n):
                images = {}
                for h in range(i + 1, j + 1):
                    for l in range(k + 1, n + 1):
                        images[gen(i, k, h, l)] = {gen(j, k, h, l): 1}
                maps.append(GradedHom(images))
    # class tau: adjacent swaps
    for i in range(1, d):
        for k in range(1, n):
            images = {gen(i, k, i + 1, k + 1): {gen(i, k + 1, i + 1, k): 1}}
            maps.append(GradedHom(images))
    return maps


def verify_basis(ideal: MonomialIdeal, maps) -> bool:
    """True iff the maps are well-defined tangent vectors that form a basis."""
    index, rows = syzygy_system(ideal)
    vectors = []
    for hom in maps:
        for g, img in hom.images.items():
            if g not in ideal.gens:
                return False
            dg = multidegree(g, ideal.n)
            for m in img:
                if multidegree(m, ideal.n) != dg or m in ideal:
                    return False
        vectors.append(hom.vector(index))
    # each map must satisfy every syzygy constraint
    for row in rows:
        for vec in vectors:
            if sum(c * vec.get(k, 0) for k, c in row.items()):
                return False
    independent = rank_sparse(vectors) == len(vectors)
    spanning = len(vectors) == len(index) - rank_sparse(rows)
    return independent and spanning
