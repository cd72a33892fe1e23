"""Tree enumeration, the ideal bijection, moves, and two oracles from
trees of projective lines: the torus-fixed tree ideals and the
cross-ratio family."""

import hashlib
import heapq
import json
from fractions import Fraction
from itertools import product

import pytest

from hilbdiag import groebner
from hilbdiag.borel import build_z
from hilbdiag.gridcore import (Monomial, MonomialIdeal,
                               series_equals_diagonal)
from hilbdiag.tangent import chain_ideal, tangent_dimension
from hilbdiag.treespace import (NotATreeIdeal, Tree, _adjacency,
                                _bfs_parents, enumerate_trees, ideal_to_tree,
                                is_smooth, MovesGraph, moves_graph,
                                tree_tangent_dim, tree_to_ideal,
                                vertex_tangent_count)


def quad(ri, i, rj, j):
    return Monomial({(ri, i): 1, (rj, j): 1})


def _tree_from_code(code, n):
    """Parent array (rooted at 0) of the labeled tree with the given
    Pruefer-style code on vertex set {0..n}."""
    nv = n + 1
    degree = [1] * nv
    for v in code:
        degree[v] += 1
    heap = [v for v in range(nv) if degree[v] == 1]
    edges = []
    for v in code:
        edges.append((heapq.heappop(heap), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    parent = _bfs_parents(_adjacency(edges, range(nv)), 0)
    return [parent[v] for v in range(nv)]


def _enumerate_reference(n):
    """The trees from code sequences, sorted by key: the oracle of
    enumerate_trees.

    Rooting each vertex-labeled tree on {0..n} at vertex 0 and pushing
    each vertex label onto its parent edge yields every edge-labeled tree
    (n+1 times over), and the 2^n orientations are layered on top.
    Reversing edge k XORs the mask with its column k, so the masks of all
    orientations are found without building their trees.
    """
    flips = [0]  # flips[bits]: the mask change of reversing the edges in bits
    for k in range(n):
        column = sum(1 << i * n + k for i in range(n) if i != k)
        flips += [f ^ column for f in flips]
    seen = set()
    out = []
    for code in product(range(n + 1), repeat=max(n - 1, 0)):
        parent = _tree_from_code(code, n)
        base = [(parent[v], v) for v in range(1, n + 1)]  # edge label v
        tails = Tree(base).tails
        for bits, flip in enumerate(flips):
            if tails ^ flip not in seen:
                seen.add(tails ^ flip)
                out.append(Tree([(t, h) if not bits >> k & 1 else (h, t)
                                 for k, (t, h) in enumerate(base)]))
    return sorted(out, key=Tree.key)


def test_enumeration_counts():
    assert len(enumerate_trees(1)) == 1
    assert len(enumerate_trees(2)) == 4
    assert len(enumerate_trees(3)) == 32
    assert len(enumerate_trees(4)) == 400
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_enumeration_matches_code_oracle():
    for n in range(1, 6):
        assert list(enumerate_trees(n)) == _enumerate_reference(n)


def test_decoded_edges_rebuild_the_tree():
    for n in range(1, 6):
        for tree in enumerate_trees(n):
            assert Tree(tree.edges) == tree


def test_flipped_table_bit_is_decoded_or_rejected():
    # a tree's table with one off-diagonal bit flipped is either another
    # tree's table or no tree's; the decoder tells the two apart both from
    # an ideal and from a table-built tree
    rejected = 0
    for n in (3, 4):
        tables = {t.tails for t in enumerate_trees(n)}
        for tree in enumerate_trees(n):
            for i, j in product(range(n), repeat=2):
                if i == j:
                    continue
                tails = tree.tails ^ 1 << i * n + j
                flipped = Tree._from_table(n, tails)
                if tails in tables:
                    assert Tree(flipped.edges).tails == tails
                    continue
                rejected += 1
                with pytest.raises(NotATreeIdeal):
                    ideal_to_tree(tree_to_ideal(flipped))
                with pytest.raises(NotATreeIdeal):
                    Tree._from_table(n, tails).edges
    assert rejected
    # a diagonal bit leaves the gluing as it is: only the final check sees it
    with pytest.raises(NotATreeIdeal, match="does not match"):
        Tree._from_table(3, enumerate_trees(3)[0].tails | 1).edges


def test_keys_and_enumeration_order_are_pinned():
    # every key, in the order enumerate_trees returns the trees, n <= 5
    keys = [["".join(t.key()) for t in enumerate_trees(n)] for n in range(1, 6)]
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() \
        == "af6906255445fb12cdff19c38ffc24ac6dcc0bf5828bd23b501a631c1ba79df5"


def test_reversing_an_edge_flips_its_column():
    # the orientation trick of the code oracle, and no bit on the diagonal
    for tree in enumerate_trees(4):
        n = tree.n
        assert tree.tails >> n * n == 0
        assert all(not tree.tails >> i * n + i & 1 for i in range(n))
        for k in range(n):
            edges = list(tree.edges)
            edges[k] = edges[k][::-1]
            column = sum(1 << i * n + k for i in range(n) if i != k)
            assert Tree(edges).tails == tree.tails ^ column


def test_tree_requires_tree_shape():
    with pytest.raises(ValueError):
        Tree([(0, 1), (0, 1)])  # duplicated edge is a cycle on 2 vertices
    with pytest.raises(ValueError):
        Tree([(0, 1), (2, 3)])  # disconnected


def test_orientations_of_single_edge_coincide():
    assert Tree([(0, 1)]) == Tree([(1, 0)])


def test_tree_to_ideal_star_and_chain():
    # star, all edges outward: the distinguished ideal
    star = Tree([(0, k) for k in range(1, 4)])
    assert tree_to_ideal(star) == build_z(2, 3)
    # path with every edge pointing at the start: the chain ideal
    chain = Tree([(1, 0), (2, 1), (3, 2)])
    assert tree_to_ideal(chain) == chain_ideal(2, 3)
    # the reversed path gives the transposed chain
    rev = Tree([(0, 1), (1, 2), (2, 3)])
    assert tree_to_ideal(rev) == MonomialIdeal(2, 3, [
        quad(2, 1, 1, 2), quad(2, 1, 1, 3), quad(2, 2, 1, 3)])
    # star, all edges inward
    star_in = Tree([(k, 0) for k in range(1, 4)])
    assert tree_to_ideal(star_in) == MonomialIdeal(2, 3, [
        quad(2, 1, 2, 2), quad(2, 1, 2, 3), quad(2, 2, 2, 3)])


def test_figure_tree_ideal():
    # generators y1y2, y1x3, x2x3: edges 1 and 2 head to head, edge 3
    # hanging tail-first off the tail of edge 2
    ideal = MonomialIdeal(2, 3, [quad(2, 1, 2, 2), quad(2, 1, 1, 3),
                                 quad(1, 2, 1, 3)])
    tree = ideal_to_tree(ideal)
    assert tree_to_ideal(tree) == ideal
    assert sorted(tree.degrees()) == [1, 1, 2, 2]


def test_bijection_roundtrip():
    for n in (1, 2, 3, 4):
        for tree in enumerate_trees(n):
            assert ideal_to_tree(tree_to_ideal(tree)) == tree


def test_distinct_trees_have_distinct_ideals():
    for n in (2, 3, 4):
        ideals = {tree_to_ideal(t) for t in enumerate_trees(n)}
        assert len(ideals) == len(enumerate_trees(n))


def test_every_tree_ideal_is_in_the_scheme():
    for n in (2, 3, 4):
        for tree in enumerate_trees(n):
            assert series_equals_diagonal(tree_to_ideal(tree))


def test_ideal_to_tree_rejects_non_tree_tables():
    # pairwise symbols that no tree realizes
    candidate = MonomialIdeal(2, 3, [quad(1, 1, 1, 2), quad(1, 1, 1, 3),
                                     quad(2, 2, 2, 3)])
    assert candidate not in {tree_to_ideal(t) for t in enumerate_trees(3)}
    with pytest.raises(NotATreeIdeal):
        ideal_to_tree(candidate)


def test_ideal_to_tree_rejects_wrong_shape():
    with pytest.raises(NotATreeIdeal):
        ideal_to_tree(MonomialIdeal(2, 3, [quad(1, 1, 1, 2)]))
    with pytest.raises(NotATreeIdeal):
        ideal_to_tree(build_z(3, 3))


def test_tangent_formula_values():
    assert vertex_tangent_count(1) == 0
    assert vertex_tangent_count(2) == 3
    assert vertex_tangent_count(3) == 6
    assert vertex_tangent_count(4) == 12
    star4 = ideal_to_tree(build_z(2, 4))
    assert tree_tangent_dim(star4) == 12
    chain4 = ideal_to_tree(chain_ideal(2, 4))
    assert tree_tangent_dim(chain4) == 9
    assert tree_tangent_dim(Tree([(0, 1)])) == 0


def test_tangent_formula_matches_linear_algebra():
    for n in (2, 3):
        for tree in enumerate_trees(n):
            assert tangent_dimension(tree_to_ideal(tree)) \
                == tree_tangent_dim(tree)


def test_smoothness():
    assert is_smooth(ideal_to_tree(chain_ideal(2, 4)))
    assert not is_smooth(ideal_to_tree(build_z(2, 4)))
    assert is_smooth(ideal_to_tree(build_z(2, 3)))
    for n in (2, 3, 4):
        for tree in enumerate_trees(n):
            assert is_smooth(tree) == (tree_tangent_dim(tree) == 3 * (n - 1))


def is_connected(g):
    """Every tree of the moves graph is reached from the first one."""
    adj = _adjacency(g.edges, g.nodes)
    return len(_bfs_parents(adj, next(iter(g.nodes)))) == len(g.nodes)


def test_moves_graph_n3():
    g = moves_graph(3)
    assert len(g.nodes) == 32
    assert g.edge_count("swap") == 24
    assert is_connected(g)


def test_moves_graph_n2_swaps_join_chains():
    g = moves_graph(2)
    k1 = ideal_to_tree(MonomialIdeal(2, 2, [quad(1, 1, 2, 2)])).key()
    k2 = ideal_to_tree(MonomialIdeal(2, 2, [quad(2, 1, 1, 2)])).key()
    e = frozenset((k1, k2))
    assert e in g.edges
    assert any(t[0] == "swap" for t in g.edges[e])


def test_moves_graph_connected():
    for n in (1, 2, 3, 4):
        assert is_connected(moves_graph(n))
    g = moves_graph(2)
    assert not is_connected(MovesGraph(2, g.nodes, {}))


def test_swap_edges_change_exactly_one_generator():
    g = moves_graph(3)
    for e, tags in g.edges.items():
        if not any(t[0] == "swap" for t in tags):
            continue
        a, b = tuple(e)
        ga = set(tree_to_ideal(g.nodes[a]).gens)
        gb = set(tree_to_ideal(g.nodes[b]).gens)
        assert len(ga - gb) == 1 and len(gb - ga) == 1


def test_move_edges_flip_crossed_edge_symbols():
    # a single-subset move across edge ell flips the ell-symbol exactly for
    # the pairs {j, ell} with j in the moved branch
    g = moves_graph(3)
    checked = 0
    for e, tags in g.edges.items():
        for tag in tags:
            if tag[0] != "move":
                continue
            a, b = tuple(e)
            ga = set(tree_to_ideal(g.nodes[a]).gens)
            gb = set(tree_to_ideal(g.nodes[b]).gens)
            diff = ga ^ gb
            cols = set()
            for m in diff:
                cols |= {c for (_, c), _ in m.exps}
            # all changed generators involve a common crossed column
            common = set.intersection(*({c for (_, c), _ in m.exps}
                                        for m in diff)) if diff else set()
            assert common
            checked += 1
    assert checked


def torus_fixed_ideal(tree):
    """The ideal of the torus-fixed tree of lines, one line per edge.

    The line of edge c meets every other edge i at the endpoint of i
    that faces c, so its prime holds x_i when the tail of i faces c and
    y_i otherwise; the ideal is the intersection of the n primes.
    """
    R = groebner.grid_ring(2, tree.n)
    primes = []
    for c in range(tree.n):
        # rooted at an endpoint of c, the endpoint nearer the root faces c
        parent = _bfs_parents(tree.adjacency(), tree.edges[c][0])
        primes.append([R.grid_var(1 if parent[h] == t else 2, i + 1)
                       for i, (t, h) in enumerate(tree.edges) if i != c])
    return groebner.intersect_many(primes)


def five_lines(t):
    """Four lines meeting a fifth at 0, 1, infinity and t: the
    intersection ideal depends on the cross ratio t."""
    R = groebner.grid_ring(2, 5)
    x = [None] + [R.grid_var(1, i) for i in range(1, 6)]
    y = [None] + [R.grid_var(2, i) for i in range(1, 6)]
    marks = [x[5], x[5] - y[5], y[5], x[5] - y[5] * Fraction(t)]
    return groebner.intersect_many(
        [[x[i] for i in range(1, 5)]]
        + [[x[i] for i in range(1, 5) if i != j] + [marks[j - 1]]
           for j in range(1, 5)])


def test_torus_decorations_match_tree_ideals():
    for n in (2, 3):
        R = groebner.grid_ring(2, n)
        order = groebner.lex_order(R)
        for tree in enumerate_trees(n):
            expect = [groebner.RatPoly(R, {R.exponents(g): 1})
                      for g in tree_to_ideal(tree).gens]
            assert groebner.buchberger(torus_fixed_ideal(tree), order) \
                == groebner.buchberger(expect, order)


def test_cross_ratio_family():
    gens = five_lines(2)
    for u in [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 2),
              (1, 1, 0, 0, 0), (1, 0, 0, 0, 1)]:
        assert groebner.graded_piece_dim(gens, u) == sum(u) + 1
    gens = five_lines(Fraction(-1))
    assert groebner.graded_piece_dim(gens, (1, 1, 1, 0, 0)) == 4
