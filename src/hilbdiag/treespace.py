"""Trees with labeled directed edges, and the d = 2 monomial ideals.

Monomial ideals in the 2 x n case correspond bijectively to trees on
n+1 unlabeled vertices carrying n labeled directed edges.  For distinct
edge labels i, j the symbol z_ij is the variable x_j when edge j points
away from edge i and y_j otherwise; the ideal of the tree is generated
by the products z_ij z_ji over label pairs.  A tree is its complete
symbol table, the bitmask `tails` (bit i*n + j set when z_ij = x_j); the
ideal is read off that mask, and the mask is the canonical form of the
tree, so no graph-canonization machinery is needed.  The trees are the
monomial points of H_{2,n}: `enumerate_trees` reads each table off a
complex of `borel.monomial_points(2, n)`, and a tree's edges are decoded
from its table on first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .borel import monomial_points
from .gridcore import Monomial, MonomialIdeal


class NotATreeIdeal(ValueError):
    """The given ideal does not come from a directed edge-labeled tree."""


def _adjacency(edges, vertices):
    """vertex -> [(neighbor, index of the joining edge)]."""
    adj = {v: [] for v in vertices}
    for k, (a, b) in enumerate(edges):
        adj[a].append((b, k))
        adj[b].append((a, k))
    return adj


def _bfs_parents(adj, root):
    """Parent of every vertex reachable from root, by breadth-first
    search; the root's parent is None.  On a tree, parents and paths are
    unique, so the result does not depend on the adjacency order.
    """
    parent = {root: None}
    queue = [root]
    for v in queue:
        for w, _ in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


class Tree:
    """n labeled directed edges on n+1 unlabeled vertices.

    edges[k] = (tail, head) for the edge labeled k+1; vertex names are
    internal only and carry no identity.  `tails` is the symbol table as a
    bitmask; equality and hashing read it.  `Tree(edges)` builds the mask
    from the parent pointers that validate the tree; a tree built from a
    mask decodes its edges on first use, and checks them.
    """

    __slots__ = ("n", "tails", "_edges")

    def __init__(self, edges):
        edges = [tuple(e) for e in edges]
        self.n = len(edges)
        verts = sorted({v for e in edges for v in e})
        if len(verts) != self.n + 1:
            raise ValueError("expected %d vertices, got %d" % (self.n + 1, len(verts)))
        relabel = {v: k for k, v in enumerate(verts)}
        self._edges = tuple((relabel[t], relabel[h]) for t, h in edges)
        parent = _bfs_parents(self.adjacency(), 0)
        if len(parent) != self.n + 1:
            raise ValueError("edges do not form a tree")
        self.tails = _tails_mask(self._edges, parent)

    @classmethod
    def _from_table(cls, n, tails):
        """The tree of a symbol table; `edges` decodes and checks it."""
        tree = cls.__new__(cls)
        tree.n, tree.tails, tree._edges = n, tails, None
        return tree

    @property
    def edges(self):
        if self._edges is None:
            self._edges = _tree_of_table(self.n, self.tails)._edges
        return self._edges

    def adjacency(self):
        return _adjacency(self.edges, range(self.n + 1))

    def degrees(self):
        deg = [0] * (self.n + 1)
        for t, h in self.edges:
            deg[t] += 1
            deg[h] += 1
        return deg

    def key(self):
        """The symbols z_ij, 'x' or 'y', over ordered pairs i != j in
        (i, j) order."""
        n, tails = self.n, self.tails
        return tuple('x' if tails >> i * n + j & 1 else 'y'
                     for i in range(n) for j in range(n) if i != j)

    def __eq__(self, other):
        return isinstance(other, Tree) and (self.n, self.tails) == (other.n, other.tails)

    def __hash__(self):
        return hash((self.n, self.tails))

    def __repr__(self):
        return "Tree(%r)" % (list(self.edges),)


def _tails_mask(edges, parent):
    """Bit i*n + j is set when the tail of edge j faces edge i (z_ij = x).

    Rooted where `parent` is None, every edge has a lower endpoint (the
    child).  Edge i hangs below edge j exactly when j's lower endpoint is
    an ancestor of i's; then that endpoint faces i, and otherwise j's
    upper one does.  Reversing edge j therefore flips column j of the mask.
    """
    n = len(edges)
    lower = [h if parent[h] == t else t for t, h in edges]
    edge_of = {v: k for k, v in enumerate(lower)}
    tail_lower = sum(1 << k for k, (t, _) in enumerate(edges) if t == lower[k])
    tails = 0
    for i in range(n):
        below = 0  # the edges that edge i hangs below, i itself included
        v = lower[i]
        while parent[v] is not None:
            below |= 1 << edge_of[v]
            v = parent[v]
        row = ~(below ^ tail_lower) & ((1 << n) - 1) & ~(1 << i)
        tails |= row << i * n
    return tails


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All trees with n labeled directed edges, up to isomorphism, read off
    the monomial points of H_{2,n}.

    Slot k of `u_set(2, n)` is the type with u_k = 0: its facet holds both
    rows of column k and one row of every other column j, row 2 exactly
    when z_kj = x_j.  So row k of the table is the facet's row 2 without
    column k.  The count is 2^n (n+1)^(n-2).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    full = (1 << n) - 1
    out = []
    for point in monomial_points(2, n):
        tails = 0
        for k, facet in enumerate(point):
            tails |= (facet >> n & full & ~(1 << k)) << k * n
        out.append(Tree._from_table(n, tails))
    # key() order without building the keys: the first symbol in which two
    # trees differ decides, and 'x' (a set bit) comes first, so the trees
    # sort by their bit-reversed masks, largest first
    return tuple(sorted(
        out, key=lambda t: int(format(t.tails, "0%db" % (n * n))[::-1], 2),
        reverse=True))


def tree_to_ideal(tree: Tree) -> MonomialIdeal:
    """The monomial ideal generated by z_ij z_ji over all label pairs;
    z_ij is the column-j variable, in row 1 (x) when bit i*n + j of
    `tree.tails` is set and in row 2 (y) otherwise."""
    n, tails = tree.n, tree.tails
    return MonomialIdeal(2, n, [
        Monomial({(2 - (tails >> i * n + j & 1), j + 1): 1,
                  (2 - (tails >> j * n + i & 1), i + 1): 1})
        for i, j in combinations(range(n), 2)])


def _tails_from_ideal(ideal: MonomialIdeal) -> int:
    """Decode a candidate tree ideal into its `tails` mask."""
    n = ideal.n
    if ideal.d != 2:
        raise NotATreeIdeal("tree ideals live on a 2-row grid")
    if len(ideal.gens) != n * (n - 1) // 2:
        raise NotATreeIdeal("expected one generator per column pair")
    tails = 0
    seen_pairs = set()
    for g in ideal.gens:
        if not g.is_squarefree() or g.total_degree != 2:
            raise NotATreeIdeal("generators must be squarefree quadrics")
        (r1, c1), (r2, c2) = [v for v, _ in g.exps]
        if c1 == c2:
            raise NotATreeIdeal("generator does not mix two columns")
        pair = (min(c1, c2), max(c1, c2))
        if pair in seen_pairs:
            raise NotATreeIdeal("duplicate column pair")
        seen_pairs.add(pair)
        # the column-c1 variable of the pair generator is z_{c2 c1}
        tails |= (r1 == 1) << (c2 - 1) * n + c1 - 1 | (r2 == 1) << (c1 - 1) * n + c2 - 1
    return tails


def _tree_of_table(n: int, tails: int) -> Tree:
    """The unique tree with the given symbol table.

    Two edges are adjacent iff no third edge separates them (all other
    edges face them on the same side, so their rows agree off the two);
    adjacent edges are glued at the facing endpoints, and the vertices are
    the connected components of the glued endpoints.  The result is
    verified by comparing its `tails` mask with the given one.
    """
    full = (1 << n) - 1
    rows = [tails >> i * n & full for i in range(n)]

    def end(k, i):
        # endpoint 2k (tail) or 2k + 1 (head) of edge k facing edge i;
        # the tail faces i iff z_ik = x
        return 2 * k + 1 - (rows[i] >> k & 1)

    glued = [(end(i, j), end(j, i)) for i, j in combinations(range(n), 2)
             if not (rows[i] ^ rows[j]) & ~(1 << i | 1 << j)]
    adj = _adjacency(glued, range(2 * n))
    vertex = {}  # endpoint -> the first endpoint of its component
    for e in range(2 * n):
        if e not in vertex:
            vertex.update(dict.fromkeys(_bfs_parents(adj, e), e))
    try:
        tree = Tree([(vertex[2 * k], vertex[2 * k + 1]) for k in range(n)])
    except ValueError as exc:
        raise NotATreeIdeal(str(exc))
    if tree.tails != tails:
        raise NotATreeIdeal("reconstructed tree does not match the ideal")
    return tree


def ideal_to_tree(ideal: MonomialIdeal) -> Tree:
    """Reconstruct the unique tree whose ideal is the given one."""
    return _tree_of_table(ideal.n, _tails_from_ideal(ideal))


def vertex_tangent_count(a: int) -> int:
    """Tangent directions contributed by a vertex of the given degree."""
    return 3 * (a - 1) if a <= 3 else a * (a - 1)


def tree_tangent_dim(tree: Tree) -> int:
    """Tangent space dimension from the vertex-degree formula."""
    return sum(vertex_tangent_count(a) for a in tree.degrees())


def is_smooth(tree: Tree) -> bool:
    """Smooth iff no vertex exceeds degree three (tangent dim = 3(n-1))."""
    return max(tree.degrees()) <= 3


# ---------------------------------------------------------------------------
# the graph of monomial ideals

def _move_results(tree: Tree):
    """All single moves: re-hang edge subsets across an incident edge."""
    adj = tree.adjacency()
    for v in range(tree.n + 1):
        incident = [k for _, k in adj[v]]
        if len(incident) < 2:
            continue
        for ell in incident:
            others = [k for k in incident if k != ell]
            w = tree.edges[ell][0] if tree.edges[ell][1] == v else tree.edges[ell][1]
            for r in range(1, len(others) + 1):
                for subset in combinations(others, r):
                    edges = list(tree.edges)
                    for k in subset:
                        t, h = edges[k]
                        edges[k] = (w if t == v else t, w if h == v else h)
                    yield Tree(edges), ell, subset


def _swap_results(tree: Tree):
    """All bivalent-vertex swaps, preserving each edge's sense along the path."""
    adj = tree.adjacency()
    for v in range(tree.n + 1):
        if len(adj[v]) != 2:
            continue
        (pu, k), (qu, ell) = adj[v]
        edges = list(tree.edges)
        # edge k moves across v to span (v, qu) and ell to span (pu, v);
        # each keeps its sense along the path, so the far endpoint's role
        # (tail or head) is preserved
        t, _ = edges[k]
        edges[k] = (qu, v) if t == v else (v, qu)
        t, _ = edges[ell]
        edges[ell] = (pu, v) if t == v else (v, pu)
        yield Tree(edges), (k, ell)


class MovesGraph:
    """Graph on the trees: vertices are tree keys (symbol tables)."""

    __slots__ = ("n", "nodes", "edges")

    def __init__(self, n, nodes, edges):
        self.n = n
        self.nodes = nodes      # key -> Tree
        self.edges = edges      # frozenset({key1, key2}) -> set of move tags

    def edge_count(self, kind) -> int:
        """The number of edges with at least one move of this kind."""
        return sum(1 for tags in self.edges.values()
                   if any(t[0] == kind for t in tags))


def moves_graph(n: int) -> MovesGraph:
    """Vertices: all trees; edges: single subset-moves and bivalent swaps."""
    nodes = {t.key(): t for t in enumerate_trees(n)}
    edges = {}
    for key, tree in nodes.items():
        for other, ell, subset in _move_results(tree):
            ok = other.key()
            if ok == key:
                continue  # moves that land on an isomorphic tree are dropped
            edges.setdefault(frozenset((key, ok)), set()).add(
                ("move", ell + 1, tuple(sorted(k + 1 for k in subset))))
        for other, (k, ell) in _swap_results(tree):
            ok = other.key()
            if ok == key:
                continue
            edges.setdefault(frozenset((key, ok)), set()).add(
                ("swap", tuple(sorted((k + 1, ell + 1)))))
    return MovesGraph(n, nodes, edges)
