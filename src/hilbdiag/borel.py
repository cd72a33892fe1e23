"""The distinguished Borel-fixed squarefree ideal Z and its combinatorics.

Z is the intersection of the coordinate primes Z_u indexed by the bounded
integer vectors u with sum (n-1)(d-1); its Stanley-Reisner complex is
shellable with facets F_u = {x_ij : i > u_j} in lexicographic order of u,
and the shelling recovers the common h-polynomial of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .gridcore import Monomial, MonomialIdeal


def u_set(d: int, n: int) -> list:
    """All integer vectors with 0 <= u_i <= d-1 summing to (n-1)(d-1), lex order."""
    if d < 1 or n < 1:
        raise ValueError("need d, n >= 1")
    total = (n - 1) * (d - 1)
    out = [u for u in product(range(d), repeat=n) if sum(u) == total]
    out.sort()
    return out


def z_u(d: int, n: int, u) -> MonomialIdeal:
    """The coordinate prime generated by all x_ij with i <= u_j."""
    u = tuple(u)
    if u not in set(u_set(d, n)):
        raise ValueError("%r is not an admissible degree vector for (%d,%d)" % (u, d, n))
    gens = [Monomial.variable(i, j + 1)
            for j, uj in enumerate(u) for i in range(1, uj + 1)]
    return MonomialIdeal(d, n, gens)


def facet_of(d: int, n: int, u) -> frozenset:
    """F_u = {x_ij : i > u_j}, the facet complementary to the prime of u."""
    return frozenset((i, j + 1) for j, uj in enumerate(u)
                     for i in range(uj + 1, d + 1))


def build_z(d: int, n: int) -> MonomialIdeal:
    """Minimal generators of the intersection of all primes Z_u.

    A squarefree monomial lies in every Z_u iff its support hits every
    complement {x_ij : i <= u_j}; only the minimal row per column matters,
    so the minimal generators use at most one variable per column.  We
    enumerate row choices a_j in {1..d, absent} per column and keep the
    covering choices in which every column is necessary.
    """
    us = u_set(d, n)
    nu = len(us)
    full = (1 << nu) - 1
    # cover_mask[j][a] = set of u's hit by taking row a in column j
    cover = [[0] * (d + 2) for _ in range(n)]
    for k, u in enumerate(us):
        for j in range(n):
            for a in range(1, u[j] + 1):
                cover[j][a] |= 1 << k
    gens = []
    absent = d + 1  # sentinel: column unused
    for a in product(range(1, d + 2), repeat=n):
        masks = [cover[j][aj] if aj != absent else 0 for j, aj in enumerate(a)]
        total = 0
        for m in masks:
            total |= m
        if total != full:
            continue
        minimal = True
        for j, aj in enumerate(a):
            if aj == absent:
                continue
            rest = 0
            for k, m in enumerate(masks):
                if k != j:
                    rest |= m
            if rest == full:
                minimal = False
                break
        if minimal:
            gens.append(Monomial({(aj, j + 1): 1 for j, aj in enumerate(a)
                                  if aj != absent}))
    return MonomialIdeal(d, n, gens)


def z_generators_direct(d: int, n: int) -> MonomialIdeal:
    """Generators of Z from the index description.

    Monomials x_{i_1 j_1} ... x_{i_k j_k} with j_1 < ... < j_k,
    k-1 <= i_m <= d-1 for all m, and sum of the i_m at most d(k-1).
    """
    gens = []
    for k in range(2, min(d, n) + 1):
        rows = range(k - 1, d)  # i in [k-1, d-1]
        for cols in combinations(range(1, n + 1), k):
            for iv in product(rows, repeat=k):
                if sum(iv) <= d * (k - 1):
                    gens.append(Monomial({(i, j): 1 for i, j in zip(iv, cols)}))
    return MonomialIdeal(d, n, gens)


@dataclass(frozen=True)
class ShellingStep:
    u: tuple
    facet: frozenset
    eta: frozenset


class ShellingError(Exception):
    """A facet order failed the shelling condition."""


def minimal_new_faces(facet: frozenset, earlier) -> list:
    """Minimal faces of `facet` not contained in any earlier facet."""
    fl = sorted(facet)
    k = len(fl)
    old = bytearray(1 << k)
    pos = {v: b for b, v in enumerate(fl)}
    for g in earlier:
        inter = 0
        for v in facet & g:
            inter |= 1 << pos[v]
        # mark every subset of the intersection as an old face
        sub = inter
        while True:
            old[sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & inter
    minimal = []
    for mask in range(1 << k):
        if old[mask]:
            continue
        # new face; is every maximal proper subface old?
        mfree = True
        m = mask
        while m:
            b = m & -m
            if not old[mask ^ b]:
                mfree = False
                break
            m ^= b
        if mfree:
            minimal.append(frozenset(fl[b] for b in range(k) if mask >> b & 1))
    return minimal


def shelling_order_check(facets) -> list:
    """Check a facet ordering for the shelling property.

    Returns the list of unique minimal new faces (one per facet), or
    raises ShellingError at the first facet with zero or several
    minimal new faces.  Works on any facet sequence, pure or not.
    """
    etas = []
    for k, f in enumerate(facets):
        mins = minimal_new_faces(frozenset(f), facets[:k])
        if len(mins) != 1:
            raise ShellingError("facet %d has %d minimal new faces" % (k, len(mins)))
        etas.append(mins[0])
    return etas


def shelling(d: int, n: int) -> list:
    """Shelling of the complex of Z: facets F_u in lex order of u.

    Each step carries the predicted unique minimal new face
    eta_u = {x_ij : j > 1 and i = u_j + 1 < d}; the literal shelling
    condition is verified against it.
    """
    us = u_set(d, n)
    facets = [facet_of(d, n, u) for u in us]
    etas = shelling_order_check(facets)
    steps = []
    for u, f, eta in zip(us, facets, etas):
        predicted = frozenset((u[j] + 1, j + 1) for j in range(1, n)
                              if u[j] + 1 < d)
        if eta != predicted:
            raise ShellingError("minimal new face of %r is %r, expected %r"
                                % (u, sorted(eta), sorted(predicted)))
        steps.append(ShellingStep(u=tuple(u), facet=f, eta=eta))
    return steps


def h_closed_form(d: int, n: int) -> tuple:
    """Coefficients of h(z) = sum_i binom(d-1,i) binom(n-1,i) z^i."""
    return tuple(comb(d - 1, i) * comb(n - 1, i)
                 for i in range(min(d, n)))


def shelling_h_polynomial(steps) -> tuple:
    """h-polynomial read off a shelling: sum of z^{|eta|}."""
    if not steps:
        return (0,)
    deg = max(len(s.eta) for s in steps)
    out = [0] * (deg + 1)
    for s in steps:
        out[len(s.eta)] += 1
    return tuple(out)


def is_borel_fixed(ideal: MonomialIdeal) -> bool:
    """One-step column exchange test: replacing x_{i+1,j} by x_{i,j} in any
    generator must stay in the ideal."""
    for g in ideal.gens:
        for (i, j), e in g.exps:
            if i == 1:
                continue
            swapped = g.quotient(Monomial.variable(i, j)) * Monomial.variable(i - 1, j)
            if swapped not in ideal:
                return False
    return True
