"""Acceptance suite: every criterion at its stated scale and budget.

Each test prints one pass/fail line (visible with -s or on failure) and
asserts the check outcome, its one-line summary and the runtime ceiling.
The summaries pin the counts each check covers.
"""

from hilbdiag import verify


def _assert_check(result, summary, budget):
    print(result.line())
    assert result.passed, result.details
    assert result.details == [summary]
    assert result.elapsed < budget, "took %.1fs, budget %.0fs" % (
        result.elapsed, budget)


def test_criterion_1_borel_ideal():
    # generator routes, degrees, |U| and shellings for 2 <= d,n <= 5
    _assert_check(
        verify.check_borel_ideal(),
        "16 grid sizes: generators, degrees, |U|, shellings",
        10)


def test_criterion_2_hilbert_data():
    # Hilbert values of Z up to |u| <= 6 at d,n <= 4, and the specialized
    # K-polynomial identity
    _assert_check(
        verify.check_hilbert_data(),
        "966 Hilbert values and 9 series identities",
        30)


def test_criterion_3_squarefree_degenerations():
    # 100 seeded generic trials on the {2,3} grid sizes, plus triangular
    # trials that must reproduce the Borel-fixed ideal
    _assert_check(
        verify.check_squarefree_degenerations(),
        "120 trials squarefree/series-equal, triangular ones hit Z",
        300)


def test_criterion_4_chain_tangent():
    # (d^2-1)(n-1) and the explicit basis at five grid sizes
    _assert_check(
        verify.check_chain_tangent(),
        "dimensions (d^2-1)(n-1) and bases at 5 grid sizes",
        60)


def test_criterion_5_tree_space():
    # counts 4/32/400/6912, tangent formula vs linear algebra for every
    # tree up to n=5, smoothness, and the 24 swap edges at n=3
    _assert_check(
        verify.check_tree_space(),
        "counts 4/32/400/6912, tangents for 7348 trees, "
        "Z the only Borel-fixed tree ideal, 24 swap edges at n=3",
        300)


def test_criterion_6_h33_census():
    # 13824 complexes, 16 classes, published class data, series membership
    _assert_check(
        verify.check_h33_census(),
        "13824 ideals, 16 classes, class data match, "
        "all series-equal, Z the only Borel-fixed one",
        900)


def test_criterion_7_component_reps():
    # representative ideals of the extra components match the target
    # Hilbert function for all |u| <= 4
    _assert_check(
        verify.check_component_reps(),
        "3 representative ideals, all |u| <= 4 degrees",
        300)


def test_criterion_8_deligne_routes():
    # saturation route equals weight route on seeded diagonal families;
    # d=2 fibers are tree ideals
    _assert_check(
        verify.check_deligne_routes(),
        "12 seeded configurations, routes agree, d=2 fibers are trees",
        300)


def test_criterion_9_collineations():
    # Plucker classification counts, rank bounds, and the printed cubic
    # on all 32 tree coefficient vectors
    _assert_check(
        verify.check_collineations(),
        "20 samples: counts (6,12,66), ranks <= 8, "
        "cubic vanishes on 32 trees",
        60)
