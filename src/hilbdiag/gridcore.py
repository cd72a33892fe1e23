"""Monomials, multidegrees, and squarefree monomial ideals on a d x n grid.

Variables live on a d x n grid and are indexed by pairs (row, col), both
1-based.  The ambient polynomial ring is graded by column degree, so the
multidegree of a monomial is the length-n vector of its column degrees.
Squarefree ideals are handled through their Stanley-Reisner complexes:
the K-polynomial of a squarefree ideal is the numerator of its
multigraded Hilbert series over the fixed denominator prod_j (1-t_j)^d,
and equality of K-polynomials certifies equality of Hilbert functions.

Packed monomials.  `pack` lays a monomial out row by row, like
`PolyRing.exponents`: the exponent of (i, j) fills the bit field
(i-1)*n + (j-1) of a given width.  At width 1 a squarefree monomial
becomes its vertex set, and the Stanley-Reisner layer works on these
masks: a face is a submask of a facet, and a column's share of a face is
`(face & colmask[j]).bit_count()`.  `Packing` sets the top bit of every
field aside as a guard bit that no packed monomial sets, and sizes the
fields so that every exponent the caller packs fits below it.  Products
and quotients of monomials then never carry into a neighbouring field
and become integer adds and subtracts.  With H the sum of the guard bits,
g divides w exactly when ((w | H) - g) & H == H: a field borrows from its
own guard bit, and from nowhere else, exactly when w's exponent there is
smaller than g's.

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
            if len({(i, j) for i, j, _ in entry}) != len(entry):
                raise ValueError("generator %r repeats a variable" % (entry,))
            if any(e < 1 for _, _, e in entry):
                raise ValueError("generator %r has an exponent below 1"
                                 % (entry,))
            gens.append(Monomial({(i, j): e for i, j, e in entry}))
        return cls(d, n, gens)


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
# packed monomials (see the module docstring)

def pack(m: Monomial, n: int, width: int) -> int:
    """The monomial as an integer: the exponent of (i, j) fills bit field
    (i-1)*n + (j-1), each field `width` bits wide."""
    return sum(e << ((i - 1) * n + j - 1) * width for (i, j), e in m.exps)


def unpack(w: int, n: int, width: int) -> Monomial:
    """Inverse of `pack`."""
    field = (1 << width) - 1
    exps = []
    k = 0
    while w:
        if w & field:
            exps.append(((k // n + 1, k % n + 1), w & field))
        w >>= width
        k += 1
    # fields come in row-major order, which is the sorted order of `exps`
    m = Monomial.__new__(Monomial)
    m.exps = tuple(exps)
    return m


class Packing:
    """The guarded layout of one ideal: membership and standard monomials.

    `top` is the largest exponent the caller will pack; the fields hold it
    and every generator exponent below the guard bit.  `guard` is the sum
    of the guard bits and `gens` are the minimal generators in the ideal's
    order, packed.
    """

    __slots__ = ("d", "n", "width", "guard", "gens")

    def __init__(self, ideal: MonomialIdeal, top: int):
        d, n = ideal.d, ideal.n
        top = max([top] + [e for g in ideal.gens for _, e in g.exps])
        width = top.bit_length() + 1
        self.d, self.n, self.width = d, n, width
        self.guard = sum(1 << (k * width + width - 1) for k in range(d * n))
        self.gens = [pack(g, n, width) for g in ideal.gens]

    def inside(self, w: int) -> bool:
        """True iff some generator divides the packed monomial w."""
        guard = self.guard
        w |= guard
        for g in self.gens:
            if (w - g) & guard == guard:
                return True
        return False

    def outside(self, u) -> list:
        """The packed monomials of degree u outside the ideal.

        They are built one column at a time; a partial product that is
        already in the ideal stays there, so it is dropped at once.
        """
        d, n, width, inside = self.d, self.n, self.width, self.inside
        out = [] if inside(0) else [0]
        for j, uj in enumerate(u):
            if uj:
                col = [sum(e << (i * n + j) * width for i, e in enumerate(c))
                       for c in _column_exponents(d, uj)]
                out = [a + c for a in out for c in col if not inside(a + c)]
        return out

    def standard(self, u) -> tuple:
        """The sorted monomials of degree u outside the ideal, and the
        same monomials packed."""
        n, width = self.n, self.width
        out = sorted(((unpack(w, n, width), w) for w in self.outside(u)),
                     key=lambda pair: pair[0])
        return [m for m, _ in out], [w for _, w in out]


# ---------------------------------------------------------------------------
# hypergraph dualization, shared by both directions of the
# generators <-> facets correspondence for squarefree ideals; vertex sets
# are `pack` masks at width 1

def minimal_transversals(edges) -> list:
    """Minimal hitting sets of a family of vertex masks, sorted.

    Runs the iterated-intersection algorithm: process one edge at a time,
    extending the transversals that miss it and re-minimalizing.
    """
    masks = sorted(edges, key=int.bit_count)
    if masks and not masks[0]:
        return []  # an empty edge can never be hit

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
        for c in sorted(cand, key=int.bit_count):
            if all(f & ~c for f in fresh) and all(h & ~c for h in hit):
                fresh.append(c)
        trans = hit + fresh
    return sorted(trans)


def _column_masks(d: int, n: int) -> list:
    """The vertex mask of each grid column."""
    return [sum(1 << (i * n + j) for i in range(d)) for j in range(n)]


def stanley_reisner(ideal: MonomialIdeal) -> tuple:
    """Facets of the complex whose non-faces are the monomials of the
    ideal, as sorted vertex masks.

    Facets are the complements of the minimal primes, computed by
    dualizing the generator supports.
    """
    if not ideal.is_squarefree():
        raise ValueError("Stanley-Reisner complex needs a squarefree ideal")
    full = (1 << ideal.d * ideal.n) - 1
    primes = minimal_transversals([pack(g, ideal.n, 1) for g in ideal.gens])
    return tuple(sorted(full ^ p for p in primes))


def complex_to_ideal(facets, d: int, n: int) -> MonomialIdeal:
    """The squarefree ideal of minimal non-faces of the complex spanned
    by the given vertex masks."""
    full = (1 << d * n) - 1
    nonfaces = minimal_transversals([full ^ f for f in facets])
    return MonomialIdeal(d, n, [unpack(m, n, 1) for m in nonfaces])


# ---------------------------------------------------------------------------
# Hilbert data

def target_hf(d: int, u) -> int:
    """Hilbert function every ideal in the scheme must have at degree u."""
    if d < 1:
        raise ValueError("need d >= 1")
    return comb(sum(u) + d - 1, d - 1)


@lru_cache(maxsize=None)
def _column_exponents(d: int, total: int) -> tuple:
    """All ways to put `total` across d rows (weak compositions)."""
    if d == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _column_exponents(d - 1, total - first))


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
    if len(u) != ideal.n:
        raise ValueError("degree vector has wrong length")
    return len(Packing(ideal, max(u, default=0)).outside(u))


def k_polynomial(ideal: MonomialIdeal) -> KPolynomial:
    """Numerator of the multigraded Hilbert series of the quotient ring.

    For a squarefree ideal the series is the face sum of the
    Stanley-Reisner complex: each face contributes, per column j,
    a factor t_j^{c_j} (1-t_j)^{d-c_j} where c_j counts the face's
    vertices in column j.

    The faces are counted by column profile c in a dense list of
    (d+1)^n integers, indexed by c in base d+1 with column 1 the most
    significant digit.  The product of the column factors is separable,
    t^c (1-t)^(d-c) = sum_w (-1)^(w-c) C(d-c, w-c) t^w, so the counts are
    expanded one column at a time by `_column_transform`.  Beside the
    face set, the memory is bounded by that list: (d+1)^n integers, and
    twice that during a pass.  There is deliberately no cache of
    per-profile expansions: one kept across calls grew the peak RSS of
    the perfbench checks workload from 22.3 to 29.2 MB, because the nine
    `build_z(d, n)`, 2 <= d, n <= 4, of the hilbert-data check have 505
    distinct profiles between them.
    """
    if not ideal.is_squarefree():
        raise ValueError("K-polynomial computed only for squarefree ideals")
    d, n = ideal.d, ideal.n
    faces = set()
    for facet in stanley_reisner(ideal):
        face = facet
        while face:
            faces.add(face)
            face = (face - 1) & facet
        faces.add(0)
    cols = _column_masks(d, n)
    f = [0] * (d + 1) ** n
    for face in faces:
        k = 0
        for m in cols:
            k = k * (d + 1) + (face & m).bit_count()
        f[k] += 1
    return KPolynomial(n, _column_transform(
        f, d, n, lambda w, c: (-1) ** (w - c) * comb(d - c, w - c)))


def _column_transform(f: list, d: int, n: int, entry):
    """Apply the lower-triangular table entry(r, c), 0 <= c <= r <= d, to
    every base-(d+1) digit of the dense list f, column 1 the most
    significant, and pair each result with its digits: each of n passes
    applies the table to the strided slices f[c::d+1] of the last digit
    and writes the result digit first, so the digits end back in order."""
    table = [[entry(r, c) for c in range(r + 1)] for r in range(d + 1)]
    for _ in range(n):
        slices = [f[c::d + 1] for c in range(d + 1)]
        f = []
        for row in table:
            acc = [row[0] * x for x in slices[0]]
            for t, s in zip(row[1:], slices[1:]):
                acc = [a + t * x for a, x in zip(acc, s)]
            f += acc
    return zip(product(range(d + 1), repeat=n), f)


def face_profile_counts(kpoly: KPolynomial, d: int) -> dict:
    """Inverse of `k_polynomial`'s transform: the face count of every
    column profile c.  With s = t/(1-t), t^w (1-t)^(-d) is s^w (1+s)^(d-w),
    so f_c = sum_{w <= c} K_w prod_j C(d-w_j, c_j-w_j)."""
    f = [kpoly.terms.get(w, 0) for w in product(range(d + 1), repeat=kpoly.n)]
    return dict(_column_transform(f, d, kpoly.n, lambda c, w: comb(d - w, c - w)))


@lru_cache(maxsize=None)
def diagonal_k_polynomial(d: int, n: int) -> KPolynomial:
    """K-polynomial shared by every ideal in the scheme.

    Recovered from the target Hilbert function by clearing the
    denominator: N(t) = HF(t) * prod_j (1-t_j)^d, column by column; N is
    supported in {0..d}^n, so HF on that box determines it.
    """
    hf = [target_hf(d, v) for v in product(range(d + 1), repeat=n)]
    return KPolynomial(n, _column_transform(
        hf, d, n, lambda u, v: (-1) ** (u - v) * comb(d, u - v)))


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
    facets = stanley_reisner(ideal)
    top = max((f.bit_count() for f in facets), default=0)
    full = (1 << d * n) - 1
    cols = _column_masks(d, n)
    terms = {}
    for f in facets:
        if f.bit_count() == top:
            u = tuple(((full ^ f) & m).bit_count() for m in cols)
            terms[u] = terms.get(u, 0) + 1
    return KPolynomial(n, terms)
