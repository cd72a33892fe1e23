"""Monomials, multidegrees, and squarefree monomial ideals on a d x n grid.

Variables live on a d x n grid and are indexed by pairs (row, col), both
1-based.  The ambient polynomial ring is graded by column degree, so the
multidegree of a monomial is the length-n vector of its column degrees.
Squarefree ideals are handled through their Stanley-Reisner complexes:
the K-polynomial of a squarefree ideal is the numerator of its
multigraded Hilbert series over the fixed denominator prod_j (1-t_j)^d,
and equality of K-polynomials certifies equality of Hilbert functions.

Everything here is exact integer arithmetic; no floats.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

GridVar = tuple[int, int]  # (row, col), 1-based
Multidegree = tuple[int, ...]


def var_name(v: GridVar, d: int) -> str:
    """Display name of a grid variable: row letters x,y,z for d <= 3."""
    i, j = v
    if d <= 3:
        return "xyz"[i - 1] + str(j)
    return "x%d%d" % (i, j)


class Monomial:
    """A monomial in the grid variables, stored as a sparse exponent map."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        items = []
        for v, e in dict(exps).items():
            if e == 0:
                continue
            i, j = v
            if i < 1 or j < 1 or e < 0:
                raise ValueError("bad grid exponent %r^%r" % (v, e))
            items.append(((i, j), e))
        self.exps = tuple(sorted(items))

    @classmethod
    def variable(cls, i: int, j: int) -> "Monomial":
        return cls({(i, j): 1})

    @classmethod
    def from_vars(cls, vars_) -> "Monomial":
        exps = {}
        for v in vars_:
            exps[v] = exps.get(v, 0) + 1
        return cls(exps)

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.exps)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def divides(self, other: "Monomial") -> bool:
        oe = dict(other.exps)
        return all(oe.get(v, 0) >= e for v, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exps)
        for v, e in other.exps:
            exps[v] = exps.get(v, 0) + e
        return Monomial(exps)

    def lcm(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exps)
        for v, e in other.exps:
            exps[v] = max(exps.get(v, 0), e)
        return Monomial(exps)

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        exps = dict(self.exps)
        for v, e in other.exps:
            r = exps.get(v, 0) - e
            if r < 0:
                raise ValueError("non-divisible quotient")
            exps[v] = r
        return Monomial(exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        return self.exps < other.exps

    def __bool__(self):
        return bool(self.exps)

    def to_str(self, d: int) -> str:
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
            parts.append(var_name(v, d) + ("^%d" % e if e > 1 else ""))
        return "*".join(parts)

    def __repr__(self):
        return "Monomial(%r)" % (dict(self.exps),)


ONE = Monomial({})


def multidegree(m: Monomial, n: int) -> Multidegree:
    """Column-degree vector of a monomial."""
    u = [0] * n
    for (_, j), e in m.exps:
        if j > n:
            raise ValueError("column %d out of range" % j)
        u[j - 1] += e
    return tuple(u)


def minimalize(gens) -> tuple:
    """Minimal elements of a set of monomials under divisibility."""
    gens = sorted(set(gens), key=lambda m: (m.total_degree, m.exps))
    out = []
    for g in gens:
        if not any(h.divides(g) for h in out):
            out.append(g)
    return tuple(sorted(out))


class MonomialIdeal:
    """A monomial ideal in the d x n grid ring, stored by minimal generators."""

    __slots__ = ("d", "n", "gens")

    def __init__(self, d: int, n: int, gens):
        if d < 1 or n < 1:
            raise ValueError("need d, n >= 1")
        gens = tuple(gens)
        for g in gens:
            for (i, j), _ in g.exps:
                if i > d or j > n:
                    raise ValueError("variable (%d,%d) outside %dx%d grid" % (i, j, d, n))
        self.d = d
        self.n = n
        self.gens = minimalize(gens)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def __contains__(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.d == other.d
                and self.n == other.n and self.gens == other.gens)

    def __hash__(self):
        return hash((self.d, self.n, self.gens))

    def __repr__(self):
        return "MonomialIdeal(%d, %d, <%s>)" % (
            self.d, self.n, ", ".join(g.to_str(self.d) for g in self.gens))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "gens": [[[i, j, e] for (i, j), e in g.exps] for g in self.gens],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MonomialIdeal":
        """Inverse of `to_json`; malformed data raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("an ideal must be a JSON object")
        for key in ("d", "n", "gens"):
            if key not in data:
                raise ValueError("ideal JSON has no %r" % key)
        d, n, entries = data["d"], data["n"], data["gens"]
        if type(d) is not int or type(n) is not int:
            raise ValueError("d and n must be integers")
        if not isinstance(entries, list):
            raise ValueError("gens must be a list")
        gens = []
        for entry in entries:
            if not isinstance(entry, list) or not all(
                    isinstance(t, list) and len(t) == 3
                    and all(type(x) is int for x in t) for t in entry):
                raise ValueError("generator %r is not a list of [row, col, "
                                 "exponent] integer triples" % (entry,))
            gens.append(Monomial({(i, j): e for i, j, e in entry}))
        return cls(d, n, gens)


class SimplicialComplex:
    """A simplicial complex on grid variables, stored by its facets."""

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices, facets):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        facets = [frozenset(f) for f in facets]
        for f in facets:
            if not f <= vset:
                raise ValueError("facet not contained in vertex set")
        # keep only maximal faces
        maximal = [f for f in facets if not any(f < g for g in facets)]
        self.facets = tuple(sorted(set(maximal), key=sorted))

    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1 if self.facets else -1

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    def faces(self):
        """All faces, as a set of frozensets (includes the empty face)."""
        seen = {frozenset()}
        for f in self.facets:
            fl = sorted(f)
            k = len(fl)
            for mask in range(1, 1 << k):
                seen.add(frozenset(fl[b] for b in range(k) if mask >> b & 1))
        return seen

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets)" % (
            len(self.vertices), len(self.facets))


class KPolynomial:
    """Integer polynomial in t_1..t_n, keyed by exponent vector."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for u, c in dict(terms).items():
                if c:
                    self.terms[tuple(u)] = c

    @classmethod
    def monomial(cls, u, c=1) -> "KPolynomial":
        return cls(len(u), {tuple(u): c})

    def __add__(self, other):
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out.get(u, 0) + c
        return KPolynomial(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out.get(u, 0) - c
        return KPolynomial(self.n, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return KPolynomial(self.n, {u: c * other for u, c in self.terms.items()})
        out = {}
        for u, c in self.terms.items():
            for v, e in other.terms.items():
                w = tuple(a + b for a, b in zip(u, v))
                out[w] = out.get(w, 0) + c * e
        return KPolynomial(self.n, out)

    def __eq__(self, other):
        return isinstance(other, KPolynomial) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def specialize(self) -> tuple:
        """Set every t_j to a single variable z; return coefficient tuple."""
        if not self.terms:
            return (0,)
        deg = max(sum(u) for u in self.terms)
        out = [0] * (deg + 1)
        for u, c in self.terms.items():
            out[sum(u)] += c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    def to_json(self) -> list:
        return [{"u": list(u), "c": c} for u, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data, n=None) -> "KPolynomial":
        terms = {tuple(item["u"]): item["c"] for item in data}
        if n is None:
            n = len(next(iter(terms))) if terms else 0
        return cls(n, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for u, c in sorted(self.terms.items()):
            mono = "*".join("t%d^%d" % (j + 1, e) if e > 1 else "t%d" % (j + 1)
                            for j, e in enumerate(u) if e)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%d*%s" % (c, mono))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# hypergraph dualization, shared by both directions of the
# generators <-> facets correspondence for squarefree ideals

def minimal_transversals(edges, universe):
    """Minimal hitting sets of a family of subsets of `universe`.

    Runs the iterated-intersection algorithm on bitmasks: process one edge
    at a time, extending the transversals that miss it and re-minimalizing.
    """
    universe = sorted(universe)
    idx = {v: b for b, v in enumerate(universe)}
    masks = []
    for e in edges:
        m = 0
        for v in e:
            m |= 1 << idx[v]
        if m == 0:
            return []  # an empty edge can never be hit
        masks.append(m)
    masks.sort(key=lambda m: m.bit_count())

    trans = [0]
    for em in masks:
        hit = [t for t in trans if t & em]
        miss = [t for t in trans if not t & em]
        if not miss:
            continue
        cand = set()
        for t in miss:
            e = em
            while e:
                b = e & -e
                cand.add(t | b)
                e ^= b
        # minimalize candidates among themselves, then against survivors
        fresh = []
        for c in sorted(cand, key=lambda m: m.bit_count()):
            ok = all(f & ~c != 0 or f == c for f in fresh) if fresh else True
            if ok and all(h & ~c != 0 for h in hit):
                fresh.append(c)
        trans = hit + fresh
    out = []
    for t in trans:
        out.append(frozenset(universe[b] for b in range(len(universe)) if t >> b & 1))
    return sorted(out, key=sorted)


def all_grid_vars(d: int, n: int):
    return [(i, j) for i in range(1, d + 1) for j in range(1, n + 1)]


def stanley_reisner(ideal: MonomialIdeal) -> SimplicialComplex:
    """The simplicial complex whose non-faces are the monomials of the ideal.

    Facets are the complements of the minimal primes, computed by
    dualizing the generator supports.
    """
    if not ideal.is_squarefree():
        raise ValueError("Stanley-Reisner complex needs a squarefree ideal")
    verts = all_grid_vars(ideal.d, ideal.n)
    supports = [g.support for g in ideal.gens]
    primes = minimal_transversals(supports, verts)
    vset = set(verts)
    facets = [vset - p for p in primes]
    return SimplicialComplex(verts, facets)


def complex_to_ideal(cx: SimplicialComplex, d: int, n: int) -> MonomialIdeal:
    """The squarefree ideal of minimal non-faces of a complex."""
    verts = all_grid_vars(d, n)
    covers = [set(verts) - set(f) for f in cx.facets]
    nonfaces = minimal_transversals(covers, verts)
    return MonomialIdeal(d, n, [Monomial.from_vars(nf) for nf in nonfaces])


# ---------------------------------------------------------------------------
# Hilbert data

def target_hf(d: int, u) -> int:
    """Hilbert function every ideal in the scheme must have at degree u."""
    if d < 1:
        raise ValueError("need d >= 1")
    return comb(sum(u) + d - 1, d - 1)


def _column_exponents(d: int, total: int):
    """All ways to put `total` across d rows (weak compositions)."""
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _column_exponents(d - 1, total - first):
            out.append((first,) + rest)
    return out


def monomials_of_degree(d: int, n: int, u) -> list:
    """All monomials of the given multidegree."""
    per_col = [_column_exponents(d, uj) for uj in u]
    out = []
    for combo in product(*per_col):
        exps = {}
        for j, col in enumerate(combo):
            for i, e in enumerate(col):
                if e:
                    exps[(i + 1, j + 1)] = e
        out.append(Monomial(exps))
    return out


def hf_at(ideal: MonomialIdeal, u) -> int:
    """Number of standard monomials (those outside the ideal) of degree u."""
    d, n = ideal.d, ideal.n
    if len(u) != n:
        raise ValueError("degree vector has wrong length")
    if ideal.is_squarefree():
        # supports suffice for divisibility by squarefree generators
        gsup = [g.support for g in ideal.gens]
        per_col = [_column_exponents(d, uj) for uj in u]
        count = 0
        for combo in product(*per_col):
            sup = {(i + 1, j + 1)
                   for j, col in enumerate(combo) for i, e in enumerate(col) if e}
            if not any(s <= sup for s in gsup):
                count += 1
        return count
    return sum(1 for m in monomials_of_degree(d, n, u) if m not in ideal)


def column_profile(face, n: int) -> tuple:
    """Number of face vertices in each column."""
    c = [0] * n
    for (_, j) in face:
        c[j - 1] += 1
    return tuple(c)


def k_polynomial(ideal: MonomialIdeal) -> KPolynomial:
    """Numerator of the multigraded Hilbert series of the quotient ring.

    For a squarefree ideal the series is the face sum of the
    Stanley-Reisner complex: each face contributes, per column j,
    a factor t_j^{c_j} (1-t_j)^{d-c_j} where c_j counts the face's
    vertices in column j.
    """
    if not ideal.is_squarefree():
        raise ValueError("K-polynomial computed only for squarefree ideals")
    d, n = ideal.d, ideal.n
    cx = stanley_reisner(ideal)
    profiles = {}
    for face in cx.faces():
        c = column_profile(face, n)
        profiles[c] = profiles.get(c, 0) + 1
    terms = {}
    for c, cnt in profiles.items():
        ranges = [range(cj, d + 1) for cj in c]
        for w in product(*ranges):
            coeff = cnt
            for cj, wj in zip(c, w):
                coeff *= (-1) ** (wj - cj) * comb(d - cj, wj - cj)
            if coeff:
                terms[w] = terms.get(w, 0) + coeff
    return KPolynomial(n, terms)


@lru_cache(maxsize=None)
def diagonal_k_polynomial(d: int, n: int) -> KPolynomial:
    """K-polynomial shared by every ideal in the scheme.

    Recovered from the target Hilbert function by clearing the
    denominator: N(t) = HF(t) * prod_j (1-t_j)^d, a finite
    inclusion-exclusion since N is supported in {0..d}^n.
    """
    terms = {}
    for u in product(range(d + 1), repeat=n):
        c = 0
        for v in product(*[range(uj + 1) for uj in u]):
            coeff = target_hf(d, v)
            for uj, vj in zip(u, v):
                coeff *= (-1) ** (uj - vj) * comb(d, uj - vj)
            c += coeff
        if c:
            terms[u] = c
    return KPolynomial(n, terms)


def series_equals_diagonal(ideal: MonomialIdeal) -> bool:
    """Whether a squarefree ideal has the scheme's Hilbert function.

    K-polynomial equality over the fixed denominator is a finite
    polynomial identity, so this is a complete membership test.
    """
    return k_polynomial(ideal) == diagonal_k_polynomial(ideal.d, ideal.n)


def multidegree_of_ideal(ideal: MonomialIdeal) -> KPolynomial:
    """Multidegree: sum of t^u over complements of top-dimensional facets."""
    if not ideal.is_squarefree():
        raise ValueError("multidegree computed only for squarefree ideals")
    d, n = ideal.d, ideal.n
    cx = stanley_reisner(ideal)
    if not cx.facets:
        return KPolynomial(n, {})
    top = max(len(f) for f in cx.facets)
    allv = set(all_grid_vars(d, n))
    out = KPolynomial(n, {})
    for f in cx.facets:
        if len(f) != top:
            continue
        out = out + KPolynomial.monomial(column_profile(allv - f, n))
    return out
