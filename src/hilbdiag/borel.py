"""The distinguished Borel-fixed squarefree ideal Z and its combinatorics.

Z is the intersection of the coordinate primes Z_u indexed by the bounded
integer vectors u with sum (n-1)(d-1); its Stanley-Reisner complex is
shellable with facets F_u = {x_ij : i > u_j} in lexicographic order of u,
and the shelling recovers the common h-polynomial of the scheme.

Faces and facets are `gridcore` vertex masks (`pack` at width 1: x_ij is
bit (i-1)n + (j-1)).  A face S of F is new, in no earlier facet G,
exactly when it meets F & ~G for every G, so the minimal new faces of F
are the minimal transversals of those differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .gridcore import (Monomial, MonomialIdeal, complex_to_ideal,
                       minimal_transversals, unpack)


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


def facet_of(d: int, n: int, u) -> int:
    """F_u = {x_ij : i > u_j}, the facet complementary to the prime of u."""
    return sum(1 << i * n + j for j, uj in enumerate(u) for i in range(uj, d))


def build_z(d: int, n: int) -> MonomialIdeal:
    """Minimal generators of the intersection of all primes Z_u.

    The intersection of the primes is the Stanley-Reisner ideal of the
    complex whose facets are their complements F_u: its minimal
    generators are the minimal sets of variables meeting every prime.
    """
    return complex_to_ideal([facet_of(d, n, u) for u in u_set(d, n)], d, n)


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
    facet: int
    eta: int


class ShellingError(Exception):
    """A facet order failed the shelling condition."""


def shelling_order_check(facets) -> list:
    """Check a facet ordering for the shelling property.

    Returns the list of unique minimal new faces (one per facet), or
    raises ShellingError at the first facet with zero or several
    minimal new faces.  Works on any facet sequence, pure or not.
    """
    etas = []
    for k, f in enumerate(facets):
        mins = minimal_transversals([f & ~g for g in facets[:k]])
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
        predicted = sum(1 << u[j] * n + j for j in range(1, n) if u[j] + 1 < d)
        if eta != predicted:
            raise ShellingError("minimal new face of %r is %s, expected %s"
                                % (u, unpack(eta, n, 1).to_str(d),
                                   unpack(predicted, n, 1).to_str(d)))
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
    deg = max(s.eta.bit_count() for s in steps)
    out = [0] * (deg + 1)
    for s in steps:
        out[s.eta.bit_count()] += 1
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
