"""The 3 x 3 census: monomial ideals via cell complexes in a triple triangle.

A monomial ideal with the right Hilbert function on the 3 x 3 grid
corresponds to a two-dimensional subcomplex of the boundary of a product
of three triangles: one 2-cell per type (t1, t2, t3), t_i >= 0 summing
to 2, whose face counts are those of the diagonal K-polynomial.  These
are `borel.monomial_points(3, 3)`, the cell of type t being the facet of
type u = (2, 2, 2) - t: 13824 complexes in 16 orbits of the order-1296
relabeling group `borel.symmetry_group(3, 3)`.  A complex is the tuple of
its six cells in `u_set` order.

Column j of the grid is the j-th triangle, its rows the triangle's
vertices, so a product cell is a grid vertex mask (`gridcore.pack` at
width 1, row a of column j is bit 3a + j): it takes t_j + 1 rows of
column j.  The faces of a cell in the product are its submasks that meet
every column, of dimension (bit count) - 3.  The Stanley-Reisner ideal
of a complex is the one of its cell masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter

from . import groebner
from .borel import _bit_table, act, monomial_points, product_cells, symmetry_group
from .gridcore import MonomialIdeal, complex_to_ideal as sr_ideal, target_hf
from .tangent import tangent_dimension

# a grid mask read column by column: bit 3a + j goes to bit 3 (2 - j) + a
_BY_COLUMN = _bit_table([3 * (2 - b % 3) + b // 3 for b in range(9)])
# The census order reads the slots of types (2,0,0), (0,2,0), (0,0,2),
# (1,1,0), (1,0,1), (0,1,1), not `u_set` order: perfbench slices the
# census by index, and its digests are pinned.
_KEY_SLOTS = itemgetter(0, 3, 5, 1, 2, 4)


def key(cx: tuple):
    """Sort key: each cell read column by column; for cells of one type
    this orders their row sets lexicographically, column by column."""
    return tuple(map(_BY_COLUMN.__getitem__, _KEY_SLOTS(cx)))


def is_planar(cx: tuple) -> bool:
    """No 1-cell lies in more than two of the six 2-cells."""
    once = twice = thrice = 0
    for cell in cx:
        edges = product_cells(cell, 3, 3)[1]
        thrice |= twice & edges
        twice |= once & edges
        once |= edges
    return not thrice


CANDIDATE_SPACE = 9 ** 3 * 27 ** 3  # one cell per type; kept for perfbench's hit ratio


@lru_cache(maxsize=1)
def enumerate_h33() -> tuple:
    """All admissible complexes, `borel.monomial_points(3, 3)`, sorted by key."""
    return tuple(sorted(monomial_points(3, 3), key=key))


def complex_to_ideal(cx: tuple) -> MonomialIdeal:
    """Stanley-Reisner ideal whose facets are the six cells."""
    return sr_ideal(cx, 3, 3)


@dataclass
class SymmetryClass:
    representative: tuple
    orbit_size: int
    stabilizer_order: int


def symmetry_classes(complexes) -> list:
    """Orbits of the census under the order-1296 group, in key order of
    their representatives, the least complex of each orbit."""
    universe = set(complexes)
    group = symmetry_group(3, 3)
    unseen = set(universe)
    classes = []
    # every lesser complex was met first, so each orbit is met at its least
    for cx in sorted(universe, key=key):
        if cx not in unseen:
            continue
        orbit = {act(cx, g, 3, 3) for g in group}
        if not orbit <= universe:
            raise AssertionError("census not stable under the group action")
        unseen -= orbit
        if len(group) % len(orbit):
            raise AssertionError("orbit size does not divide the group order")
        classes.append(SymmetryClass(
            representative=cx,
            orbit_size=len(orbit),
            stabilizer_order=len(group) // len(orbit)))
    return classes


# the published census: multiset of (tangent dim, planar, stabilizer order)
EXPECTED_CLASS_DATA = (
    (16, True, 2), (16, True, 1), (16, True, 1), (18, True, 6),
    (16, True, 3), (14, True, 2), (15, True, 1), (16, False, 1),
    (17, False, 1), (18, False, 2), (17, False, 1), (14, False, 2),
    (18, False, 2), (18, False, 2), (18, False, 1), (18, False, 6),
)


@dataclass
class Table1Row:
    tangent: int
    planar: bool
    stabilizer_order: int
    orbit_size: int
    ideal: MonomialIdeal


@dataclass
class Table1Report:
    rows: list
    matches_published: bool

    @property
    def total(self):
        return sum(r.orbit_size for r in self.rows)


def table1_report(classes) -> Table1Report:
    """Per-class tangent dimension, planarity and stabilizer order,
    compared against the published census as a multiset."""
    rows = []
    for cl in classes:
        ideal = complex_to_ideal(cl.representative)
        rows.append(Table1Row(
            tangent=tangent_dimension(ideal),
            planar=is_planar(cl.representative),
            stabilizer_order=cl.stabilizer_order,
            orbit_size=cl.orbit_size,
            ideal=ideal))
    rows.sort(key=lambda r: (-r.planar, r.tangent, r.stabilizer_order))
    got = sorted((r.tangent, r.planar, r.stabilizer_order) for r in rows)
    want = sorted(EXPECTED_CLASS_DATA)
    return Table1Report(rows=rows, matches_published=(got == want))


# ---------------------------------------------------------------------------
# representative ideals of the extra components

def _vars33(ring):
    x = {k: ring.grid_var(1, k) for k in (1, 2, 3)}
    y = {k: ring.grid_var(2, k) for k in (1, 2, 3)}
    z = {k: ring.grid_var(3, k) for k in (1, 2, 3)}
    return x, y, z


def rep_ideal_extra14() -> list:
    """Representative of the 14-dimensional components: a blown-up plane,
    two planes and a quadric surface glued along linear spaces."""
    ring = groebner.grid_ring(3, 3)
    x, y, z = _vars33(ring)
    p1 = [x[1], x[2],
          y[1] * z[2] - z[1] * y[2],
          y[1] * y[3] - z[1] * x[3],
          y[2] * y[3] - z[2] * x[3]]
    p2 = [x[1], y[1], x[3], y[3]]
    p3 = [x[1], x[2], x[3], y[3]]
    p4 = [x[2], y[2], x[3], y[3]]
    return groebner.intersect_many([p1, p2, p3, p4])


def cubic_family_ideal(a, b, c, d) -> list:
    """The family with cubic member a*y1y2z3 + b*y1y2y3 + c*y1z2y3 + d*z1z2y3
    intersected with the three fixed linear primes; (1,0,0,-1) is the
    representative of the 13-dimensional components."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    ring = groebner.grid_ring(3, 3)
    x, y, z = _vars33(ring)
    q1 = [x[1], y[1], x[2], z[2]]
    q2 = [x[1], y[1], x[3], y[3]]
    q3 = [x[2], y[2], x[3], y[3]]
    cubic = (y[1] * y[2] * z[3] * a + y[1] * y[2] * y[3] * b
             + y[1] * z[2] * y[3] * c + z[1] * z[2] * y[3] * d)
    q4 = [x[1], x[2], x[3], cubic]
    return groebner.intersect_many([q1, q2, q3, q4])


def rep_ideal_extra13() -> list:
    return cubic_family_ideal(1, 0, 0, -1)


@dataclass
class RepCheck:
    name: str
    degrees_checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def hilbert_function_check(gens, bound=4, name="ideal") -> RepCheck:
    """Compare graded-piece dimensions with the target at all |u| <= bound."""
    failures = []
    checked = 0
    for u in product(range(bound + 1), repeat=3):
        if sum(u) > bound:
            continue
        checked += 1
        got = groebner.graded_piece_dim(gens, u)
        want = target_hf(3, u)
        if got != want:
            failures.append((u, got, want))
    return RepCheck(name=name, degrees_checked=checked, failures=failures)


# a second member of the cubic family, checked beside the representatives
CUBIC_MEMBER = (1, 0, 0, 1)


def component_rep_checks(bound=4) -> list:
    """Hilbert-function verification of the extra-component representatives."""
    return [hilbert_function_check(rep_ideal_extra14(), bound, "extra-14"),
            hilbert_function_check(rep_ideal_extra13(), bound, "extra-13"),
            hilbert_function_check(cubic_family_ideal(*CUBIC_MEMBER), bound,
                                   "cubic-family%r" % (CUBIC_MEMBER,))]
