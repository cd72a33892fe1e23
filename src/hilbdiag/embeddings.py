"""Equations and parametrizations for the small group completions.

Three related computations: the pair of 9 x 18 multiplication matrices
whose rank drop cuts out the 3 x 2 case inside a Grassmannian of
quadric nets, its parametrization by two invertible 3 x 3 matrices U and
V, whose Plucker coordinates are the 3 x 3 minors of the net's 3 x 9
coefficient matrix (with one global sign), and the scaled-minor
coordinates that embed the general case into a product of projective
spaces.  The 2 x 3 case gets the explicit rank-four matrix test plus the
single printed cubic that its coefficient vectors satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import groebner
from .gridcore import MonomialIdeal
from .linalg import rank_dense

PAIRS = [(i, j) for i in range(1, 4) for j in range(1, 4)]
_PAIR_POS = {p: k for k, p in enumerate(PAIRS)}
MULTISETS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
_MS_POS = {m: k for k, m in enumerate(MULTISETS)}


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


@dataclass
class CollineationMatrices:
    by_first_factor: list   # 9 x 18, rows multiply by the column-1 variables
    by_second_factor: list  # 9 x 18, rows multiply by the column-2 variables
    rank_first: int
    rank_second: int


def collineation_matrices(A) -> CollineationMatrices:
    """The two 9 x 18 coefficient matrices of a net of bilinear quadrics.

    A is 3 x 9; its rows are the coefficient vectors of three quadrics
    sum A[r][(i,j)] x_i1 x_j2.  Multiplying the three quadrics by the
    three variables of either grid column gives nine polynomials whose
    coefficient matrices (over the 18 monomials of the corresponding
    bidegree) are returned along with their exact ranks.  A rank drop to
    eight in both is the membership condition for the net's ideal.
    """
    A = _frac_matrix(A)
    if len(A) != 3 or any(len(row) != 9 for row in A):
        raise ValueError("expected a 3 x 9 coefficient matrix")
    m1 = [[Fraction(0)] * 18 for _ in range(9)]
    m2 = [[Fraction(0)] * 18 for _ in range(9)]
    for k in range(1, 4):          # multiplier row index
        for r in range(3):         # which quadric
            row = 3 * (k - 1) + r
            for (i, j) in PAIRS:
                coeff = A[r][_PAIR_POS[(i, j)]]
                ms = tuple(sorted((k, i)))
                m1[row][3 * _MS_POS[ms] + (j - 1)] += coeff
                ms2 = tuple(sorted((k, j)))
                m2[row][3 * _MS_POS[ms2] + (i - 1)] += coeff
    return CollineationMatrices(
        by_first_factor=m1, by_second_factor=m2,
        rank_first=rank_dense(m1), rank_second=rank_dense(m2))


# ---------------------------------------------------------------------------
# Plucker parametrization by two 3 x 3 matrices

def uv_coeff_matrix(U, V) -> list:
    """Coefficient matrix of the net spanned by the transformed minors.

    Rows correspond to the quadric pairs (1,2), (1,3), (2,3) of the rows
    of U against the rows of V; the entry at column pair (p, q) is
    u_{rp} v_{sq} - u_{sp} v_{rq} for the row pair (r, s).
    """
    U, V = _frac_matrix(U), _frac_matrix(V)
    A = [[Fraction(0)] * 9 for _ in range(3)]
    for row, (r, s) in enumerate(combinations(range(3), 2)):
        for (p, q) in PAIRS:
            A[row][_PAIR_POS[(p, q)]] = (U[r][p - 1] * V[s][q - 1]
                                         - U[s][p - 1] * V[r][q - 1])
    return A


def plucker_triples():
    """The 84 canonical index triples: increasing triples of column pairs."""
    return list(combinations(PAIRS, 3))


def _net_minor(A, triple):
    """Minus the 3 x 3 minor of a net's coefficient matrix on the columns
    of a triple of index pairs."""
    cols = [_PAIR_POS[p] for p in triple]
    return -groebner.matrix_det([[row[c] for c in cols] for row in A])


def plucker_pattern(triple) -> str:
    """Structural shape of the parametrized coordinate: 'zero', 'monomial'
    or 'binomial', decided by repeated columns in its expansion as
    det(u_i1, v_i2, u_j1) det(v_j2, u_k1, v_k2)
    - det(u_i1, v_i2, v_j2) det(u_j1, u_k1, v_k2) over columns of U, V."""
    (i1, i2), (j1, j2), (k1, k2) = triple
    first = i1 != j1 and j2 != k2
    second = i2 != j2 and j1 != k1
    if first and second:
        return "binomial"
    if first or second:
        return "monomial"
    return "zero"


def plucker_param(U, V) -> dict:
    """All 84 coordinates with their structural patterns.

    Returns {triple: (value, pattern)}; U and V must be invertible.
    """
    if groebner.matrix_det(U) == 0:
        raise ValueError("U is singular")
    if groebner.matrix_det(V) == 0:
        raise ValueError("V is singular")
    A = uv_coeff_matrix(U, V)
    return {triple: (_net_minor(A, triple), plucker_pattern(triple))
            for triple in plucker_triples()}


def plucker_classification_counts(values) -> tuple:
    """(zero, binomial, monomial) counts over the 84 canonical triples."""
    kinds = [pat for (_, pat) in values.values()]
    return (kinds.count("zero"), kinds.count("binomial"), kinds.count("monomial"))


# ---------------------------------------------------------------------------
# scaled-minor coordinates in a product of projective spaces

def minor_types(d: int, n: int):
    """Vectors counting how many columns each block contributes to a minor."""
    def rec(rem, k):
        if k == 1:
            return [(rem,)] if rem <= d else []
        return [(first,) + rest for first in range(min(rem, d) + 1)
                for rest in rec(rem - first, k - 1)]
    return sorted(rec(d, n))


def lafforgue_coordinates(matrices) -> dict:
    """Per-type vectors of maximal minors of the concatenated matrices.

    For each vector i summing to d, the coordinate vector lists the
    d x d minors of (A_1 | ... | A_n) using i_j columns from block j, in
    lexicographic order of the column choices; each vector is projective
    (defined up to scale).
    """
    mats = [_frac_matrix(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    d = len(mats[0])
    n = len(mats)
    if d < 1:
        raise ValueError("matrices must be at least 1 x 1")
    for k, m in enumerate(mats):
        if len(m) != d or any(len(r) != d for r in m):
            raise ValueError("matrix %d is not square of size %d" % (k + 1, d))
        if groebner.matrix_det(m) == 0:
            raise ValueError("matrix %d is singular" % (k + 1))
    big = [[mats[j][r][c] for j in range(n) for c in range(d)] for r in range(d)]
    out = {}
    for itype in minor_types(d, n):
        vec = []
        block_choices = [list(combinations(range(d), ij)) for ij in itype]
        for picks in product(*block_choices):
            cols = []
            for j, chosen in enumerate(picks):
                cols.extend(j * d + c for c in chosen)
            sub = [[big[r][c] for c in cols] for r in range(d)]
            vec.append(groebner.matrix_det(sub))
        out[itype] = vec
    return out


# ---------------------------------------------------------------------------
# the 2 x 3 rank test and its cubic

def x23_matrix(coeffs) -> list:
    """The 6 x 8 coefficient matrix of the three bidegree-(1,1) generators
    multiplied by the missing column's two variables.

    coeffs maps (i, j) with i < j in {1,2,3} to the quadruple
    (a, b, c, d) of the generator a x_i x_j + b x_i y_j + c y_i x_j
    + d y_i y_j.  Columns are indexed by sign vectors of the eight
    degree-(1,1,1) monomials.
    """
    rows = []
    for (i, j) in [(1, 2), (1, 3), (2, 3)]:
        a, b, c, d = (Fraction(v) for v in coeffs[(i, j)])
        k = ({1, 2, 3} - {i, j}).pop()
        for ek in (0, 1):
            row = [Fraction(0)] * 8
            for (ei, ej), coeff in (((0, 0), a), ((0, 1), b),
                                    ((1, 0), c), ((1, 1), d)):
                bits = {i: ei, j: ej, k: ek}
                row[4 * bits[1] + 2 * bits[2] + bits[3]] = coeff
            rows.append(row)
    return rows


def x23_cubic(coeffs):
    a12, b12, _, _ = coeffs[(1, 2)]
    a13, b13, _, _ = coeffs[(1, 3)]
    a23, b23, c23, d23 = coeffs[(2, 3)]
    return (Fraction(a12) * a13 * d23 - Fraction(a12) * b13 * c23
            - Fraction(b12) * a13 * b23 + Fraction(b12) * b13 * a23)


def x23_cubic_check(coeffs) -> bool:
    """Membership test for a net of three bidegree-(1,1) forms: the printed
    cubic vanishes and the multiplication matrix has rank at most four."""
    return x23_cubic(coeffs) == 0 and rank_dense(x23_matrix(coeffs)) <= 4


def tree_ideal_coeffs(ideal: MonomialIdeal) -> dict:
    """Coefficient quadruples of a 2 x 3 monomial tree ideal."""
    if ideal.d != 2 or ideal.n != 3:
        raise ValueError("expected an ideal on the 2 x 3 grid")
    out = {}
    for g in ideal.gens:
        (r1, c1), (r2, c2) = [v for v, _ in g.exps]
        if c1 > c2:
            (r1, c1), (r2, c2) = (r2, c2), (r1, c1)
        quad = [0, 0, 0, 0]
        quad[2 * (r1 - 1) + (r2 - 1)] = 1
        out[(c1, c2)] = tuple(quad)
    if sorted(out) != [(1, 2), (1, 3), (2, 3)]:
        raise ValueError("not a full set of pair generators")
    return out
