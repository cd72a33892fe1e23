"""The distinguished Borel-fixed squarefree ideal Z and its combinatorics.

Z is the intersection of the coordinate primes Z_u indexed by the bounded
integer vectors u with sum (n-1)(d-1); its Stanley-Reisner complex is
shellable with facets F_u = {x_ij : i > u_j} in lexicographic order of u,
and the shelling recovers the common h-polynomial of the scheme.

Faces and facets are `gridcore` vertex masks (`pack` at width 1: x_ij is
bit (i-1)n + (j-1)).  A face S of F is new, in no earlier facet G,
exactly when it meets F & ~G for every G, so the minimal new faces of F
are the minimal transversals of those differences.

Every monomial point of the scheme is radical: the Stanley-Reisner ideal
of a complex with one facet of the shape of F_u per type u, whose face
counts `monomial_points` reads off the diagonal K-polynomial.  A point is
the tuple of its facets in `u_set` order.

The relabeling group (S_d)^n x| S_n, of order n! (d!)^n, permutes the rows
within each column and the columns themselves, so it acts on the points by
permuting grid bits.  An element moves column j's part of a facet,
`facet >> j & base` with row a at bit an, by one table lookup: there are
d! n tables, one per row permutation and target column.  A facet's image
is the OR of n lookups.  It keeps each column's row count, so its type is
u with the entries moved with the columns, and the images fill the slots
in an order that depends on the column permutation alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from .gridcore import (Monomial, MonomialIdeal, _column_masks,
                       complex_to_ideal, diagonal_k_polynomial,
                       face_profile_counts, minimal_transversals, unpack)


def u_set(d: int, n: int) -> list:
    """All integer vectors with 0 <= u_i <= d-1 summing to (n-1)(d-1), lex order."""
    if d < 1 or n < 1:
        raise ValueError("need d, n >= 1")
    total = (n - 1) * (d - 1)
    out = [u for u in product(range(d), repeat=n) if sum(u) == total]
    out.sort()
    return out


def facet_of(d: int, n: int, u) -> int:
    """F_u = {x_ij : i > u_j}, the facet complementary to the prime of u."""
    return sum(1 << i * n + j for j, uj in enumerate(u) for i in range(uj, d))


@lru_cache(maxsize=None)
def _cells(d: int, n: int) -> tuple:
    """The vertex-cells and the edge-cells of the grid, in mask order: the
    faces meeting every column, with n and n + 1 vertices."""
    cols = _column_masks(d, n)
    faces = [m for m in range(1 << d * n) if all(m & c for c in cols)]
    return tuple([m for m in faces if m.bit_count() == n + k] for k in (0, 1))


def product_cells(facet: int, d: int, n: int) -> tuple:
    """The vertex-cells and the edge-cells of a facet, as bitsets: bit i
    stands for cell i of `_cells`."""
    return tuple(sum(1 << i for i, m in enumerate(cells) if not m & ~facet)
                 for cells in _cells(d, n))


def monomial_points(d: int, n: int) -> tuple:
    """Complexes of the monomial points, as tuples of facets in `u_set`
    order, the facet of type u with d - u_j rows in column j.

    A depth-first search picks one facet per type and keeps the closure's
    vertex-cells and edge-cells as bitsets.  Counts only grow, so a choice
    is cut once a count exceeds its target, read off the diagonal
    K-polynomial: no point is lost.  Only these two counts are matched,
    so callers certify each complex by `series_equals_diagonal`.
    """
    counts = face_profile_counts(diagonal_k_polynomial(d, n), d)
    want_v, want_e = (sum(f for c, f in counts.items() if min(c) and sum(c) == n + k)
                      for k in (0, 1))
    slots = []
    for u in u_set(d, n):
        columns = [map(sum, combinations([1 << i * n + j for i in range(d)], d - uj))
                   for j, uj in enumerate(u)]
        slots.append([(f,) + product_cells(f, d, n) for f in map(sum, product(*columns))])
    last = len(slots) - 1
    found = []

    def walk(k, verts, edges, chosen):
        if k == last:  # a flat loop: both counts must be met exactly
            for facet, v, e in slots[k]:
                if (verts | v).bit_count() == want_v and (edges | e).bit_count() == want_e:
                    found.append(chosen + (facet,))
            return
        for facet, v, e in slots[k]:
            nv = verts | v
            ne = edges | e
            if nv.bit_count() <= want_v and ne.bit_count() <= want_e:
                walk(k + 1, nv, ne, chosen + (facet,))

    walk(0, 0, 0, ())
    del walk  # its closure holds it: free `found` on return, not at the next gc
    return tuple(found)


# ---------------------------------------------------------------------------
# the relabeling group (S_d)^n x| S_n

@lru_cache(maxsize=None)
def symmetry_group(d: int, n: int) -> list:
    """All (column permutation, per-column row permutations) elements, the
    column permutation outer."""
    rows = list(permutations(range(d)))
    return [(pi, rhos) for pi in permutations(range(n))
            for rhos in product(rows, repeat=n)]


def _bit_table(targets) -> list:
    """The image of every mask below 2^len(targets) when bit b moves to bit
    targets[b]; a bit whose target is None is dropped."""
    table = [0]
    for t in targets:
        table += table if t is None else [m | 1 << t for m in table]
    return table


@lru_cache(maxsize=None)
def _action_tables(d: int, n: int) -> tuple:
    """The rows of column 0 as a mask, `base`; moved[rho][c], a column's
    part once rho permutes its rows and it lands in column c; and slots[pi],
    where the image of each facet goes: moving the columns by pi takes the
    facet of type u to the slot of the type v with v[pi[j]] = u[j]."""
    base = sum(1 << a * n for a in range(d))
    moved = {rho: [_bit_table([rho[b // n] * n + c if b % n == 0 else None
                               for b in range((d - 1) * n + 1)]) for c in range(n)]
             for rho in permutations(range(d))}
    us = u_set(d, n)
    slot = {u: k for k, u in enumerate(us)}
    slots = {pi: [slot[tuple(u[pi.index(c)] for c in range(n))] for u in us]
             for pi in permutations(range(n))}
    return base, moved, slots


def act(points: tuple, g, d: int, n: int) -> tuple:
    """Image of a point under g = (pi, rhos): row a of column j goes to row
    rhos[j][a] of column pi[j], so bit an + j moves to bit n rhos[j][a] + pi[j]."""
    pi, rhos = g
    base, moved, slots = _action_tables(d, n)
    tables = [moved[rho][c] for rho, c in zip(rhos, pi)]
    images = [0] * len(points)
    for facet, k in zip(points, slots[pi]):
        image = 0
        for table in tables:  # column j's part is facet >> j & base
            image |= table[facet & base]
            facet >>= 1
        images[k] = image
    return tuple(images)


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
