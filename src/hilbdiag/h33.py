"""The 3 x 3 census: monomial ideals via cell complexes in a triple triangle.

A monomial ideal with the right Hilbert function on the 3 x 3 grid
corresponds to a two-dimensional subcomplex of the boundary of a product
of three triangles: one 2-cell per type (t1, t2, t3), t_i >= 0 summing
to 2, whose closure has exactly ten 0-cells and fifteen 1-cells.  The
scan below walks all 9^3 * 27^3 type-respecting choices with exact
monotone pruning on the closure counts and finds 13824 complexes in 16
orbits of the order-1296 relabeling group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from . import groebner
from .gridcore import MonomialIdeal, complex_to_ideal as sr_ideal, target_hf

TYPES = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))

_FACES = {
    0: [frozenset({a}) for a in range(3)],
    1: [frozenset(e) for e in combinations(range(3), 2)],
    2: [frozenset({0, 1, 2})],
}
_EDGE_INDEX = {frozenset(e): k for k, e in enumerate(combinations(range(3), 2))}


def cells_of_type(t):
    """All product cells of the given dimension type."""
    return [tuple(fs) for fs in product(_FACES[t[0]], _FACES[t[1]], _FACES[t[2]])]


def _vertex_id(v):
    a, b, c = v
    return 9 * a + 3 * b + c


def _cell_vertex_mask(cell) -> int:
    mask = 0
    for v in product(*cell):
        mask |= 1 << _vertex_id(v)
    return mask


def _cell_edges(cell):
    """1-subcells: choose the factor holding the edge, then vertices."""
    out = []
    for k in range(3):
        if len(cell[k]) < 2:
            continue
        subedges = [cell[k]] if len(cell[k]) == 2 else _FACES[1]
        others = [sorted(cell[m]) for m in range(3) if m != k]
        for e in subedges:
            for a in others[0]:
                for b in others[1]:
                    out.append((k, e, a, b))
    return out


def _edge_id(edge) -> int:
    k, e, a, b = edge
    return ((k * 3 + _EDGE_INDEX[e]) * 3 + a) * 3 + b


def _cell_edge_mask(cell) -> int:
    mask = 0
    for edge in _cell_edges(cell):
        mask |= 1 << _edge_id(edge)
    return mask


class CellComplex233:
    """Six 2-cells, one per type, with closure bookkeeping."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        cells = tuple(tuple(frozenset(f) for f in cell) for cell in cells)
        if len(cells) != 6:
            raise ValueError("expected six 2-cells")
        for cell, t in zip(cells, TYPES):
            if tuple(len(f) - 1 for f in cell) != t:
                raise ValueError("cell %r does not have type %r" % (cell, t))
        self.cells = cells

    def key(self):
        return tuple(tuple(tuple(sorted(f)) for f in cell) for cell in self.cells)

    def vertex_mask(self) -> int:
        mask = 0
        for cell in self.cells:
            mask |= _cell_vertex_mask(cell)
        return mask

    def edge_mask(self) -> int:
        mask = 0
        for cell in self.cells:
            mask |= _cell_edge_mask(cell)
        return mask

    def is_planar(self) -> bool:
        """No 1-cell lies in more than two of the six 2-cells."""
        masks = [_cell_edge_mask(cell) for cell in self.cells]
        e = self.edge_mask()
        while e:
            b = e & -e
            if sum(1 for m in masks if m & b) > 2:
                return False
            e ^= b
        return True

    def squares_share_point(self) -> bool:
        common = ~0
        for cell, t in zip(self.cells, TYPES):
            if sorted(t) == [0, 1, 1]:
                common &= _cell_vertex_mask(cell)
        return common != 0

    def __eq__(self, other):
        return isinstance(other, CellComplex233) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "CellComplex233(%r)" % (self.key(),)


CANDIDATE_SPACE = 9 ** 3 * 27 ** 3  # size of the raw scan


@lru_cache(maxsize=1)
def enumerate_h33() -> tuple:
    """All admissible complexes, by exhaustive scan with monotone pruning.

    Closure counts only grow as cells are added, so partial choices whose
    0-cell or 1-cell count already exceeds the targets (or can no longer
    reach them) are cut; the final test is exact equality 10 and 15.
    """
    slots = [cells_of_type(t) for t in TYPES]
    slot_data = [[(cell, _cell_vertex_mask(cell), _cell_edge_mask(cell))
                  for cell in cells] for cells in slots]
    # most new vertices/edges a later slot can still contribute
    max_v = [3, 3, 3, 4, 4, 4]
    max_e = [3, 3, 3, 4, 4, 4]
    suffix_v = [sum(max_v[k:]) for k in range(7)]
    suffix_e = [sum(max_e[k:]) for k in range(7)]

    found = []
    choice = [None] * 6

    def walk(level, vmask, emask):
        if level == 6:
            if vmask.bit_count() == 10 and emask.bit_count() == 15:
                found.append(CellComplex233([c for c, _, _ in choice]))
            return
        for entry in slot_data[level]:
            cell, vm, em = entry
            nv = vmask | vm
            ne = emask | em
            cv = nv.bit_count()
            ce = ne.bit_count()
            if cv > 10 or ce > 15:
                continue
            if cv + suffix_v[level + 1] < 10 or ce + suffix_e[level + 1] < 15:
                continue
            choice[level] = entry
            walk(level + 1, nv, ne)
        choice[level] = None

    walk(0, 0, 0)
    return tuple(found)


def complex_to_ideal(cx: CellComplex233) -> MonomialIdeal:
    """Stanley-Reisner ideal whose facets are the six cells' variable sets:
    row a of column j is vertex 3a + j, the row-major layout of `pack`."""
    return sr_ideal([sum(1 << 3 * a + j for j, f in enumerate(cell) for a in f)
                     for cell in cx.cells], 3, 3)


# ---------------------------------------------------------------------------
# the order-1296 relabeling group

@lru_cache(maxsize=1)
def symmetry_group():
    """All (column permutation, per-column row permutations) elements."""
    perms = list(permutations(range(3)))
    return [
        (pi, rhos)
        for pi in perms
        for rhos in product(perms, repeat=3)
    ]


def act(cx: CellComplex233, g) -> CellComplex233:
    pi, rhos = g
    placed = [None] * 6
    type_pos = {t: k for k, t in enumerate(TYPES)}
    for cell in cx.cells:
        img = [None, None, None]
        for j in range(3):
            img[pi[j]] = frozenset(rhos[j][a] for a in cell[j])
        t = tuple(len(f) - 1 for f in img)
        placed[type_pos[t]] = tuple(img)
    return CellComplex233(placed)


@dataclass
class SymmetryClass:
    representative: CellComplex233
    orbit_size: int
    stabilizer_order: int


def symmetry_classes(complexes=None) -> list:
    """Orbits of the census under the order-1296 group."""
    if complexes is None:
        complexes = enumerate_h33()
    universe = {cx.key(): cx for cx in complexes}
    group = symmetry_group()
    unseen = set(universe)
    classes = []
    for key in sorted(universe):
        if key not in unseen:
            continue
        cx = universe[key]
        orbit = set()
        for g in group:
            img = act(cx, g)
            ik = img.key()
            if ik not in universe:
                raise AssertionError("census not stable under the group action")
            orbit.add(ik)
        unseen -= orbit
        if len(group) % len(orbit):
            raise AssertionError("orbit size does not divide the group order")
        classes.append(SymmetryClass(
            representative=universe[min(orbit)],
            orbit_size=len(orbit),
            stabilizer_order=len(group) // len(orbit)))
    classes.sort(key=lambda c: c.representative.key())
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


def table1_report(classes=None) -> Table1Report:
    """Per-class tangent dimension, planarity and stabilizer order,
    compared against the published census as a multiset."""
    from .tangent import tangent_dimension
    if classes is None:
        classes = symmetry_classes()
    rows = []
    for cl in classes:
        ideal = complex_to_ideal(cl.representative)
        rows.append(Table1Row(
            tangent=tangent_dimension(ideal),
            planar=cl.representative.is_planar(),
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


def component_rep_checks(bound=4, extra_family=((1, 0, 0, 1),)) -> list:
    """Hilbert-function verification of the extra-component representatives."""
    out = [hilbert_function_check(rep_ideal_extra14(), bound, "extra-14"),
           hilbert_function_check(rep_ideal_extra13(), bound, "extra-13")]
    for coeffs in extra_family:
        out.append(hilbert_function_check(
            cubic_family_ideal(*coeffs), bound,
            "cubic-family%r" % (tuple(coeffs),)))
    return out
