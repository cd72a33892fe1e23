"""Sparse polynomials over the rationals and Buchberger's algorithm.

The ring is a fixed variable list: the d x n grid variables in row-major
order, optionally followed by auxiliary variables (a deformation
parameter z, elimination helpers).  Term orders are weight vectors
refined by lex on the variable list, with an optional elimination block
that is compared first.  Everything is exact Fraction arithmetic.

Buchberger's algorithm keeps its basis as monic (lt, tail) pairs: the
polynomial is the monomial lt plus the tail dict, so reduction and
S-polynomials never touch a leading coefficient.  `normal_form` fills
its remainder largest term first, and every polynomial `buchberger`
returns lists its leading term first, with coefficient 1; callers read
the leading monomial as `next(iter(g.terms))`.

Pairs are managed by the Gebauer-Moeller update (Gebauer and Moeller
1988): each new basis element queues only the pairs that the chain and
product criteria cannot show redundant, and drops the queued pairs that it
makes redundant.  A skipped pair's S-polynomial reduces to zero, or its
reduction is covered by pairs that are kept, so the reduced basis, which
is unique for the ideal and the order, is the one that reducing every
pair would give; only the number of reductions falls.  `is_groebner`
still reduces every pair, independently of the criteria.

On top of that sit the pipeline operations: the two-by-two minors and
the column-wise matrix action, initial ideals, seeded generic-initial
sampling, pairwise ideal intersection and saturation by the added
variable trick, the z-parameter special fiber with its weight-order
shortcut, and graded-piece dimensions by exact rank.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from operator import add, le, mul, sub
from random import Random

from .borel import build_z
from .gridcore import (Monomial, MonomialIdeal, monomials_of_degree,
                       multidegree, series_equals_diagonal, var_name)
from .linalg import rank_sparse


class PolyRing:
    """An ordered list of variables; grid rings remember the (row, col)
    layout of their first d*n variables, which `exponents` and `monomial`
    translate."""

    __slots__ = ("names", "index", "gridshape")

    def __init__(self, names, gridshape=None):
        self.names = tuple(names)
        self.index = {nm: k for k, nm in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")
        self.gridshape = gridshape

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return RatPoly(self, {})

    def one(self):
        return RatPoly(self, {(0,) * self.nvars: Fraction(1)})

    def var(self, name):
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return RatPoly(self, {tuple(e): Fraction(1)})

    def grid_var(self, i, j):
        return RatPoly(self, {self.exponents(Monomial.variable(i, j)): Fraction(1)})

    def exponents(self, m: Monomial) -> tuple:
        """The exponent tuple of a grid monomial; the grid variable (i, j)
        sits at position (i-1)*n + (j-1), row by row."""
        n = self.gridshape[1]
        e = [0] * self.nvars
        for (i, j), ex in m.exps:
            e[(i - 1) * n + (j - 1)] = ex
        return tuple(e)

    def monomial(self, exps) -> Monomial:
        """The grid monomial of an exponent tuple; inverse of `exponents`."""
        d, n = self.gridshape
        if any(exps[d * n:]):
            raise ValueError("monomial involves a non-grid variable")
        return Monomial({(k // n + 1, k % n + 1): e
                         for k, e in enumerate(exps[:d * n]) if e})

    def extend(self, extra):
        return PolyRing(self.names + tuple(extra), gridshape=self.gridshape)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names \
            and self.gridshape == other.gridshape

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)


def grid_var_names(d, n):
    return [var_name((i, j), d) for i in range(1, d + 1) for j in range(1, n + 1)]


def grid_ring(d, n, extra=()):
    return PolyRing(grid_var_names(d, n) + list(extra), gridshape=(d, n))


class RatPoly:
    """A polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly(self.ring, {(0,) * self.ring.nvars: Fraction(other)})
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return RatPoly(self.ring, out)

    def __neg__(self):
        return RatPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly(self.ring, {(0,) * self.ring.nvars: Fraction(other)})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(self.ring, {m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(m1, m2))
                v = out.get(w, 0) + c1 * c2
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
        return RatPoly(self.ring, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.ring == other.ring \
            and self.terms == other.terms

    def substitute(self, images: dict) -> "RatPoly":
        """Replace variables by polynomials: images maps var index -> RatPoly."""
        ring = next(iter(images.values())).ring if images else self.ring
        out = RatPoly(ring, {})
        for m, c in self.terms.items():
            term = RatPoly(ring, {(0,) * ring.nvars: c})
            for k, e in enumerate(m):
                if not e:
                    continue
                img = images.get(k)
                if img is None:
                    img = ring.var(self.ring.names[k])
                for _ in range(e):
                    term = term * img
            out = out + term
        return out

    def inject(self, bigring: "PolyRing") -> "RatPoly":
        """View in an extension ring that appends variables at the end."""
        pad = bigring.nvars - self.ring.nvars
        if pad < 0 or bigring.names[:self.ring.nvars] != self.ring.names:
            raise ValueError("not an extension ring")
        return RatPoly(bigring, {m + (0,) * pad: c for m, c in self.terms.items()})

    def project(self, smallring: "PolyRing") -> "RatPoly":
        """Drop trailing variables, which must not occur."""
        k = smallring.nvars
        if self.ring.names[:k] != smallring.names:
            raise ValueError("not a restriction ring")
        out = {}
        for m, c in self.terms.items():
            if any(m[k:]):
                raise ValueError("polynomial involves a dropped variable")
            out[m[:k]] = c
        return RatPoly(smallring, out)

    def grid_multidegree(self):
        """Column-degree vector; requires Z^n-homogeneity."""
        n = self.ring.gridshape[1]
        degs = {multidegree(self.ring.monomial(m), n) for m in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not multigraded-homogeneous")
        return degs.pop() if degs else None

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                "%s^%d" % (self.ring.names[k], e) if e > 1 else self.ring.names[k]
                for k, e in enumerate(m) if e)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-%s" % mono)
            else:
                parts.append("%s*%s" % (c, mono))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return self.pretty()


class TermOrder:
    """Weight order refined by lex; optional leading elimination block.

    Rational weights are scaled by the lcm of their denominators and kept
    as ints: a positive scale leaves the order unchanged, and keys then
    cost only integer arithmetic.
    """

    __slots__ = ("ring", "weights", "elim")

    def __init__(self, ring, weights=None, elim=()):
        self.ring = ring
        self.weights = None
        if weights:
            fracs = [Fraction(w) for w in weights]
            if len(fracs) != ring.nvars:
                raise ValueError("weight vector length mismatch")
            scale = lcm(*(w.denominator for w in fracs))
            self.weights = tuple(int(w * scale) for w in fracs)
        self.elim = tuple(sorted(elim))

    def key(self, exps):
        parts = []
        if self.elim:
            parts.append(sum(exps[k] for k in self.elim))
        if self.weights:
            parts.append(sum(map(mul, self.weights, exps)))
        parts.append(exps)
        return tuple(parts)

    def neg_key(self, exps):
        """The key with every entry negated: a min-heap on it pops the
        largest monomial first."""
        parts = []
        if self.elim:
            parts.append(-sum(exps[k] for k in self.elim))
        if self.weights:
            parts.append(-sum(map(mul, self.weights, exps)))
        parts.append(tuple(-e for e in exps))
        return tuple(parts)

    def leading_term(self, f: RatPoly):
        m = max(f.terms, key=self.key)
        return m, f.terms[m]

    def weight_decisive(self, f: RatPoly) -> bool:
        """Whether the weight vector alone picks f's leading monomial."""
        if not self.weights or len(f.terms) <= 1:
            return True
        weights = [sum(map(mul, self.weights, m)) for m in f.terms]
        return weights.count(max(weights)) == 1


def lex_order(ring) -> TermOrder:
    return TermOrder(ring)


class IndecisiveWeights(ValueError):
    """A weight vector failed to single out leading monomials."""


def normal_form(f: RatPoly, basis, order: TermOrder) -> RatPoly:
    """Fully reduce f modulo a list of monic (lt, tail) pairs.

    The work terms sit in a heap keyed once per monomial.  A reduction
    step only adds monomials below the one it reduces, so popping in key
    order visits the work terms largest first; an entry whose monomial
    has since cancelled out of `work` is skipped.  The remainder is
    filled in that order, so its first term is its leading term.
    """
    neg_key = order.neg_key
    work = dict(f.terms)
    heap = [(neg_key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lt, tail in basis:
            if all(map(le, lt, m)):
                q = tuple(map(sub, m, lt))
                for mg, cg in tail.items():
                    w = tuple(map(add, mg, q))
                    v = work.get(w)
                    if v is None:
                        work[w] = -c * cg
                        heapq.heappush(heap, (neg_key(w), w))
                    else:
                        v -= c * cg
                        if v:
                            work[w] = v
                        else:
                            del work[w]
                break
        else:
            rem[m] = c
    return RatPoly(f.ring, rem)


def _prepare(gens, order):
    """Monic nonzero generators without repeats, sorted deterministically,
    as (lt, tail) pairs."""
    uniq = {}
    for g in gens:
        if g.is_zero():
            continue
        lt, lc = order.leading_term(g)
        terms = {m: c / lc for m, c in g.terms.items()}
        sig = tuple(sorted(terms.items()))
        del terms[lt]  # what is left is the tail
        uniq.setdefault(sig, (order.key(lt), sig, lt, terms))
    return [(lt, tail) for _, _, lt, tail in sorted(uniq.values())]


def _s_poly(ring, lcm, pi, pj):
    """The S-polynomial of two monic pairs whose leading monomials divide
    lcm: their leading terms cancel, leaving q_i*tail_i - q_j*tail_j."""
    (lti, taili), (ltj, tailj) = pi, pj
    qi = tuple(map(sub, lcm, lti))
    qj = tuple(map(sub, lcm, ltj))
    out = {tuple(map(add, m, qi)): c for m, c in taili.items()}
    for m, c in tailj.items():
        w = tuple(map(add, m, qj))
        out[w] = out.get(w, 0) - c
    return RatPoly(ring, out)  # drops the cancelled terms


def buchberger(gens, order: TermOrder) -> list:
    """Reduced Groebner basis, deterministic for a given input set.

    Each basis element, the input generators included, enters through
    `_update`, which queues its useful pairs and drops the queued pairs it
    makes redundant.  Pair selection is by smallest lcm in the term order,
    then by index.  The criteria only skip S-polynomials that reduce to
    zero or whose reduction is covered by other pairs, and the reduced
    basis of an ideal is unique, so the output is the same as with every
    pair reduced.  Each returned polynomial lists its leading term first,
    with coefficient 1, so `next(iter(g.terms))` is its leading monomial.
    """
    ring = gens[0].ring if gens else None
    basis = _prepare(gens, order)
    if not basis:
        return []
    key = order.key
    pairs, active = [], []
    for k in range(len(basis)):
        _update(pairs, active, basis, k, key)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        r = normal_form(_s_poly(ring, lcm, basis[i], basis[j]), basis, order)
        if r.is_zero():
            continue
        terms = iter(r.terms.items())
        lt, lc = next(terms)
        basis.append((lt, {m: c / lc for m, c in terms}))
        _update(pairs, active, basis, len(basis) - 1, key)

    return _interreduce(basis, ring, order)


def _update(pairs, active, basis, k, key):
    """The Gebauer-Moeller update for the new element k of `basis`.

    Updates in place the heap `pairs` of queued pairs and the list `active`
    of the elements that may still form new ones.  Of the new pairs (i, k),
    one is dropped when another's lcm properly divides its lcm (criterion
    M); of those with equal lcm one is kept, none if one of them is coprime
    (F); coprime pairs are dropped (product criterion).  A queued pair
    (i, j) is dropped when lt(k) divides its lcm and that lcm differs from
    those of (i, k) and (j, k) (B_k).  An element whose leading monomial
    lt(k) divides forms no further pairs.
    """
    ltk = basis[k][0]
    new = []  # (lcm, coprime, i)
    for i in active:
        lcm = tuple(map(max, basis[i][0], ltk))
        new.append((lcm, tuple(map(add, basis[i][0], ltk)) == lcm, i))
    first = {}  # lcm -> the pair kept for it, or None
    for lcm, coprime, i in new:
        if any(l2 != lcm and all(map(le, l2, lcm)) for l2, _, _ in new):
            continue  # M
        if coprime:
            first[lcm] = None  # F and the product criterion
        else:
            first.setdefault(lcm, i)

    def keep(pair):
        _, _, i, j, lcm = pair
        return not all(map(le, ltk, lcm)) \
            or lcm == tuple(map(max, basis[i][0], ltk)) \
            or lcm == tuple(map(max, basis[j][0], ltk))
    pairs[:] = filter(keep, pairs)  # B_k
    heapq.heapify(pairs)
    for lcm, i in first.items():
        if i is not None:
            heapq.heappush(pairs, (key(lcm), (i, k), i, k, lcm))
    active[:] = [i for i in active if not all(map(le, ltk, basis[i][0]))]
    active.append(k)


def _interreduce(basis, ring, order):
    """Minimalize leading terms, then reduce; canonical sorted output.

    `basis` holds monic (lt, tail) pairs.  A kept leading monomial is
    divisible by no other kept one, so reducing the whole polynomial
    lt + tail keeps it as the first term, with coefficient 1.
    """
    keep = [b for k, b in enumerate(basis)
            if not any(all(map(le, b2[0], b[0])) and (b2[0] != b[0] or k2 < k)
                       for k2, b2 in enumerate(basis) if k2 != k)]
    keep.sort(key=lambda b: order.key(b[0]))
    return [normal_form(RatPoly(ring, {lt: Fraction(1), **tail}),
                        keep[:k] + keep[k + 1:], order)
            for k, (lt, tail) in enumerate(keep)]


def is_groebner(basis, order) -> bool:
    """Every S-pair reduces to zero; used as a self-check in tests."""
    ring = basis[0].ring if basis else None
    pairs = _prepare(basis, order)
    return all(normal_form(_s_poly(ring, tuple(map(max, pi[0], pj[0])), pi, pj),
                           pairs, order).is_zero()
               for pi, pj in combinations(pairs, 2))


# ---------------------------------------------------------------------------
# the determinantal ideal and the group action

def minors_ideal(d, n, ring=None) -> list:
    """All 2x2 minors x_ik x_jl - x_jk x_il of the variable grid."""
    if ring is None:
        ring = grid_ring(d, n)
    if d < 2:
        return []
    gens = []
    for i, j in combinations(range(1, d + 1), 2):
        for k, l in combinations(range(1, n + 1), 2):
            gens.append(ring.grid_var(i, k) * ring.grid_var(j, l)
                        - ring.grid_var(j, k) * ring.grid_var(i, l))
    return gens


def _entry_poly(entry, ring):
    if isinstance(entry, RatPoly):
        return entry.inject(ring) if entry.ring != ring else entry
    return RatPoly(ring, {(0,) * ring.nvars: Fraction(entry)})


def matrix_det(matrix, ring=None):
    """Exact determinant by permutation expansion: a Fraction for number
    entries, or a polynomial of `ring` when one is given (number entries
    then count as constants)."""
    coerce = Fraction if ring is None else (lambda x: _entry_poly(x, ring))
    rows = [[coerce(x) for x in row] for row in matrix]
    det = coerce(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = coerce(-1 if inversions % 2 else 1)
        for row, c in zip(rows, perm):
            term = term * row[c]
        det = det + term
    return det


def apply_matrices(matrices, gens) -> list:
    """Substitute column j of the grid by A_j times that column.

    Matrix entries may be rational numbers or polynomials in the
    generators' ring (e.g. in the deformation variable z); every matrix
    must be invertible over the fraction field.
    """
    ring = gens[0].ring
    d, n = ring.gridshape
    if len(matrices) != n:
        raise ValueError("need one matrix per column")
    images = {}
    for j, mat in enumerate(matrices, start=1):
        if len(mat) != d or any(len(row) != d for row in mat):
            raise ValueError("matrix %d is not %dx%d" % (j, d, d))
        if matrix_det(mat, ring).is_zero():
            raise ValueError("matrix %d is singular" % j)
        for i in range(1, d + 1):
            img = ring.zero()
            for k in range(1, d + 1):
                img = img + _entry_poly(mat[i - 1][k - 1], ring) * ring.grid_var(k, j)
            images[ring.exponents(Monomial.variable(i, j)).index(1)] = img
    return [g.substitute(images) for g in gens]


def initial_ideal(gens, order: TermOrder):
    """Initial monomial ideal of the generated ideal.

    Returns (ideal, decisive) where `decisive` records whether the
    weight part of the order already singled out every leading monomial
    of the reduced basis (ties are broken by lex either way).
    """
    gb = buchberger(gens, order)
    ring = gens[0].ring
    d, n = ring.gridshape
    decisive = all(order.weight_decisive(g) for g in gb)
    lts = [ring.monomial(next(iter(g.terms))) for g in gb]
    return MonomialIdeal(d, n, lts), decisive


# ---------------------------------------------------------------------------
# intersection and saturation via one added variable

def intersect(gens_a, gens_b) -> list:
    """Generators of the intersection of two ideals in the same ring."""
    if not gens_a or not gens_b:
        return []
    ring = gens_a[0].ring
    big = ring.extend(("@s",))
    s = big.var("@s")
    lifted = [s * f.inject(big) for f in gens_a]
    lifted += [(big.one() - s) * g.inject(big) for g in gens_b]
    return _eliminate_last(lifted, ring)


def intersect_many(ideal_gens) -> list:
    out = None
    for gens in ideal_gens:
        out = gens if out is None else intersect(out, gens)
    return out if out is not None else []


def saturate_z(gens) -> list:
    """Saturate with respect to the variable z: adjoin 1 - t*z, eliminate t,
    then strip z-contents from the output generators."""
    if not gens:
        return []
    ring = gens[0].ring
    big = ring.extend(("@t",))
    lifted = [g.inject(big) for g in gens]
    lifted.append(big.one() - big.var("@t") * big.var("z"))
    iz = ring.index["z"]
    return [_strip_z(g, iz) for g in _eliminate_last(lifted, ring)]


def _eliminate_last(lifted, ring) -> list:
    """The reduced basis of `lifted` under the order that eliminates the
    last variable of its ring, cut down to the elements free of that
    variable and projected to `ring`.  Under that order a leading
    monomial free of the variable makes the whole element free of it."""
    big = lifted[0].ring
    gb = buchberger(lifted, TermOrder(big, elim=(big.nvars - 1,)))
    return [g.project(ring) for g in gb if not next(iter(g.terms))[-1]]


def _strip_z(f: RatPoly, iz: int) -> RatPoly:
    k = min(m[iz] for m in f.terms)
    if k == 0:
        return f
    return RatPoly(f.ring, {m[:iz] + (m[iz] - k,) + m[iz + 1:]: c
                            for m, c in f.terms.items()})


def special_fiber(matrices, d, n) -> list:
    """Set z to zero in the saturated, z-content-free transformed minors.

    `matrices` is one invertible d x d matrix per column, entries in Q[z]
    (RatPoly over grid_ring(d, n, ["z"]) or plain rationals).
    """
    ring = grid_ring(d, n, ("z",))
    iz = ring.nvars - 1
    mats = [[[_entry_poly(x, ring) for x in row] for row in mat] for mat in matrices]
    gens = apply_matrices(mats, minors_ideal(d, n, ring))
    gens = [_strip_z(g, iz) for g in gens if not g.is_zero()]
    small = grid_ring(d, n)
    # z = 0 keeps the z-free terms; _strip_z left every generator some
    fiber = [RatPoly(small, {m[:iz]: c for m, c in g.terms.items() if not m[iz]})
             for g in saturate_z(gens)]
    return buchberger(fiber, lex_order(small))


def fiber_monomial_ideal(fiber_gens, d, n) -> MonomialIdeal:
    """Interpret a special fiber as a monomial ideal; fails if it is not one."""
    if not all(g.is_monomial() for g in fiber_gens):
        raise ValueError("special fiber is not a monomial ideal")
    return MonomialIdeal(d, n, [g.ring.monomial(m) for g in fiber_gens
                                for m in g.terms])


def weight_initial_route(weights, matrices, d, n) -> MonomialIdeal:
    """Initial ideal of the transformed minors under a generic weight order.

    Raises IndecisiveWeights when the weights do not single out every
    leading monomial; the result is checked squarefree.
    """
    ring = grid_ring(d, n)
    if len(weights) != d or any(len(row) != n for row in weights):
        raise ValueError("weights must be a %d x %d matrix" % (d, n))
    order = TermOrder(ring, weights=[w for row in weights for w in row])
    gens = apply_matrices(matrices, minors_ideal(d, n, ring))
    ideal, decisive = initial_ideal(gens, order)
    if not decisive:
        raise IndecisiveWeights("weight vector has ties on the reduced basis")
    if not ideal.is_squarefree():
        raise AssertionError("initial ideal is not squarefree: %r" % (ideal,))
    return ideal


# ---------------------------------------------------------------------------
# seeded sampling

def random_invertible(d, rng: Random, shape="full"):
    """Random integer matrix with nonzero determinant.

    shape = "full" for arbitrary invertible, entries in [-9, 9];
    "borel" for the triangular group stabilizing the distinguished ideal
    under the column action (zero above the diagonal), entries with
    |a| <= 10**6 and a nonzero diagonal.  The wide range makes triangular
    draws generic: a nonzero polynomial of degree k in the entries
    vanishes at such a draw with probability at most k / (2 * 10**6)
    (Schwartz-Zippel), whereas entries in [-9, 9] miss the generic
    initial ideal in about one 3x3 trial in 36.
    """
    while True:
        if shape == "full":
            mat = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        elif shape == "borel":
            mat = [[rng.randint(-10 ** 6, 10 ** 6) if i > j else
                    (rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) if i == j else 0)
                    for j in range(d)] for i in range(d)]
        else:
            raise ValueError("unknown shape %r" % shape)
        if matrix_det(mat) != 0:
            return mat


def random_weights(d, n, rng: Random, hierarchic=False):
    """Generic integer weights; hierarchic draws keep each column strictly
    decreasing down the rows (so the order refines the row filtration).

    Row-refining weights alone do not force the distinguished ideal: that
    also needs generic triangular matrices (see random_invertible).
    """
    while True:
        w = [[rng.randint(1, 10 ** 6) for _ in range(n)] for _ in range(d)]
        cols = [[w[i][j] for i in range(d)] for j in range(n)]
        if any(len(set(c)) != d for c in cols):
            continue
        if hierarchic:
            for j in range(n):
                col = sorted((w[i][j] for i in range(d)), reverse=True)
                for i in range(d):
                    w[i][j] = col[i]
        return w


@dataclass
class GinTrial:
    kind: str
    squarefree: bool
    series_ok: bool
    equals_z: bool | None
    redraws: int


@dataclass
class GinReport:
    d: int
    n: int
    seed: int
    trials: list = field(default_factory=list)

    @property
    def all_ok(self):
        for t in self.trials:
            if not (t.squarefree and t.series_ok):
                return False
            if t.kind == "borel" and not t.equals_z:
                return False
        return True


def gin_sample(d, n, trials, seed, borel_trials=None) -> GinReport:
    """Seeded sampling of initial ideals of transformed minors.

    Generic invertible tuples must give squarefree initial ideals with
    the scheme's Hilbert series.  Generic tuples from the stabilizing
    triangular group, under row-refining weights, must reproduce the
    distinguished Borel-fixed ideal exactly; genericity comes from the
    wide entry range of random_invertible's "borel" shape, not from the
    weights.
    """
    rng = Random(seed)
    report = GinReport(d=d, n=n, seed=seed)
    z_ref = build_z(d, n)
    if borel_trials is None:
        borel_trials = max(1, trials // 5)
    for kind, count in (("generic", trials), ("borel", borel_trials)):
        for _ in range(count):
            mats = [random_invertible(d, rng,
                                      "full" if kind == "generic" else "borel")
                    for _ in range(n)]
            redraws = 0
            while True:
                w = random_weights(d, n, rng, hierarchic=(kind == "borel"))
                try:
                    ideal = weight_initial_route(w, mats, d, n)
                    break
                except IndecisiveWeights:
                    redraws += 1
                    if redraws > 20:
                        raise
            report.trials.append(GinTrial(
                kind=kind,
                squarefree=ideal.is_squarefree(),
                series_ok=series_equals_diagonal(ideal),
                equals_z=(ideal == z_ref) if kind == "borel" else None,
                redraws=redraws))
    return report


# ---------------------------------------------------------------------------
# graded pieces

def graded_piece_dim(gens, u) -> int:
    """Dimension of the quotient's graded piece at multidegree u.

    Builds the coefficient matrix of all multiplier-times-generator
    products of degree u against the monomial basis and subtracts its
    exact rank from the number of monomials.
    """
    if not gens:
        raise ValueError("graded_piece_dim needs at least one generator")
    ring = gens[0].ring
    d, n = ring.gridshape
    u = tuple(u)
    basis = {ring.exponents(m): k
             for k, m in enumerate(monomials_of_degree(d, n, u))}
    rows = []
    for g in gens:
        dg = g.grid_multidegree()  # validates homogeneity
        diff = tuple(a - b for a, b in zip(u, dg))
        if any(x < 0 for x in diff):
            continue
        for mult in monomials_of_degree(d, n, diff):
            q = ring.exponents(mult)
            rows.append({basis[tuple(map(add, m, q))]: c
                         for m, c in g.terms.items()})
    return len(basis) - rank_sparse(rows)


# ---------------------------------------------------------------------------
# parsing for matrices over z

_TERM_RE = re.compile(r"""\s*([+-]?)\s*            # sign
                          ([0-9]+(?:/[0-9]+)?)?    # coefficient
                          \s*(\*)?\s*
                          (z(?:\^([0-9]+))?)?\s*$  # power of z
                       """, re.VERBOSE)


def parse_fraction(x) -> Fraction:
    """An exact number from an int, a Fraction or a string like "3/2";
    a zero denominator is a ValueError."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


def parse_z_poly(text, ring):
    """Parse strings like "z^2-3/2*z+1" into a polynomial of `ring`
    (which must contain the variable z)."""
    text = text.strip()
    if not text:
        raise ValueError("empty entry")
    out = ring.zero()
    iz = ring.index["z"]
    # split into signed terms
    chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(4) is None):
            raise ValueError("cannot parse %r" % chunk)
        sign = -1 if m.group(1) == "-" else 1
        coeff = parse_fraction(m.group(2)) if m.group(2) else Fraction(1)
        exps = [0] * ring.nvars
        exps[iz] = int(m.group(5) or 1) if m.group(4) else 0
        out = out + RatPoly(ring, {tuple(exps): sign * coeff})
    return out


def load_matrices_json(data, d, n):
    """Matrices from parsed JSON: a list of n matrices, entries numbers or
    strings over z."""
    ring = grid_ring(d, n, ("z",))
    mats = []
    for mat in data:
        rows = []
        for row in mat:
            rows.append([parse_z_poly(x, ring) if isinstance(x, str)
                         else _entry_poly(x, ring) for x in row])
        mats.append(rows)
    return mats
