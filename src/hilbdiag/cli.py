"""Command-line interface: one subcommand per subsystem.

All output is deterministic for fixed flags and seeds: JSON uses sorted
keys and canonical generator order, DOT and CSV iterate sorted
structures.  Exit code is nonzero when a verification fails; bad input
(a missing or malformed file, a singular matrix) ends in one
`hilbdiag: error:` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from random import Random

from . import borel, embeddings, groebner, h33, tangent, treespace, verify
from .gridcore import MonomialIdeal, k_polynomial, multidegree_of_ideal, unpack


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    raise TypeError("cannot serialize %r" % type(obj))


def emit_json(data):
    json.dump(data, sys.stdout, sort_keys=True, indent=2,
              default=_json_default)
    sys.stdout.write("\n")


def table1_csv(report: h33.Table1Report) -> str:
    """The class table as CSV with header class,tangent,planar,symm,orbit."""
    rows = ["class,tangent,planar,symm,orbit"]
    for k, r in enumerate(report.rows, start=1):
        rows.append("%d,%d,%s,%d,%d" % (k, r.tangent, "y" if r.planar else "n",
                                        r.stabilizer_order, r.orbit_size))
    return "\n".join(rows)


def moves_graph_dot(graph: treespace.MovesGraph) -> str:
    keys = sorted(graph.nodes)
    pos = {k: i for i, k in enumerate(keys)}
    lines = ["graph moves {"]
    for k in keys:
        ideal = treespace.tree_to_ideal(graph.nodes[k])
        label = ", ".join(g.to_str(2) for g in ideal.gens)
        lines.append('  t%d [label="%s"];' % (pos[k], label))
    for e in sorted(graph.edges, key=lambda e: tuple(sorted(pos[k] for k in e))):
        a, b = sorted(pos[k] for k in e)
        kinds = ",".join(sorted({tag[0] for tag in graph.edges[e]}))
        lines.append('  t%d -- t%d [label="%s"];' % (a, b, kinds))
    lines.append("}")
    return "\n".join(lines)


def _grid_vars(mask, n):
    """The sorted (row, col) pairs of a vertex mask."""
    return [v for v, _ in unpack(mask, n, 1).exps]


def cmd_borel(args):
    z = borel.build_z(args.d, args.n)
    if args.json:
        data = {
            "ideal": z.to_json(),
            "u_set": [list(u) for u in borel.u_set(args.d, args.n)],
            "h_polynomial": list(borel.h_closed_form(args.d, args.n)),
            "multidegree": multidegree_of_ideal(z).to_json(),
        }
        if args.shelling:
            data["shelling"] = [
                {"u": list(s.u), "facet": _grid_vars(s.facet, args.n),
                 "eta": _grid_vars(s.eta, args.n)}
                for s in borel.shelling(args.d, args.n)]
        emit_json(data)
        return 0
    print("distinguished ideal on the %dx%d grid:" % (args.d, args.n))
    print("  " + ", ".join(g.to_str(args.d) for g in z.gens))
    print("h-polynomial coefficients: %s" % (list(borel.h_closed_form(args.d, args.n)),))
    print("K-polynomial terms: %d" % len(k_polynomial(z).terms))
    if args.shelling:
        for s in borel.shelling(args.d, args.n):
            print("  u=%s facet=%s eta=%s" % (list(s.u), _grid_vars(s.facet, args.n),
                                              _grid_vars(s.eta, args.n)))
    return 0


def cmd_trees(args):
    trees = treespace.enumerate_trees(args.n)
    if args.graph:
        graph = treespace.moves_graph(args.n)
        if args.graph == "dot":
            print(moves_graph_dot(graph))
        else:
            keys = sorted(graph.nodes)
            pos = {k: i for i, k in enumerate(keys)}
            data = {
                "n": args.n,
                "node_count": len(keys),
                "nodes": [treespace.tree_to_ideal(graph.nodes[k]).to_json()
                          for k in keys],
                "edges": [
                    {"ends": sorted(pos[k] for k in e),
                     "moves": sorted(",".join(map(str, t)) for t in tags)}
                    for e, tags in sorted(
                        graph.edges.items(),
                        key=lambda kv: tuple(sorted(pos[k] for k in kv[0])))],
            }
            emit_json(data)
        return 0
    if args.ideals:
        emit_json({"count": len(trees),
                   "ideals": [treespace.tree_to_ideal(t).to_json()
                              for t in trees]})
        return 0
    print("%d trees with %d labeled directed edges" % (len(trees), args.n))
    return 0


def cmd_h33(args):
    census = h33.enumerate_h33()
    print("monomial ideals found: %d" % len(census))
    if not (args.classes or args.table1 or args.reps):
        return 0
    classes = h33.symmetry_classes(census)
    if args.classes and not args.table1:
        print("symmetry classes: %d" % len(classes))
        for c in classes:
            print("  orbit=%d stabilizer=%d" % (c.orbit_size, c.stabilizer_order))
    if args.table1:
        report = h33.table1_report(classes)
        text = table1_csv(report)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(text + "\n")
            print("wrote %s" % args.csv)
        else:
            print(text)
        print("matches published census: %s" % report.matches_published)
        if not report.matches_published:
            return 1
    if args.reps:
        ok = True
        bound = 4 if args.bound is None else args.bound
        for chk in h33.component_rep_checks(bound=bound):
            print("%s: %s (%d degrees)" % (chk.name,
                                           "ok" if chk.ok else "FAIL",
                                           chk.degrees_checked))
            ok = ok and chk.ok
        if not ok:
            return 1
    return 0


def cmd_tangent(args):
    if args.basis:
        maps = tangent.chain_basis(args.d, args.n)
        data = []
        for hom in maps:
            entry = []
            for g, img in sorted(hom.images.items()):
                entry.append({
                    "generator": [[i, j, e] for (i, j), e in g.exps],
                    "image": [{"monomial": [[i, j, e] for (i, j), e in m.exps],
                               "coeff": c} for m, c in sorted(img.items())],
                })
            data.append(entry)
        emit_json({"d": args.d, "n": args.n, "count": len(maps), "maps": data})
        return 0
    with open(args.ideal) as fh:
        ideal = MonomialIdeal.from_json(json.load(fh))
    print(tangent.tangent_dimension(ideal))
    return 0


def _weights_from_monomial_diagonal(mats, d, n):
    """Recover (weights, constant matrices) from diagonal-monomial-times-
    constant matrices over z; raises ValueError for other shapes."""
    weights = [[0] * n for _ in range(d)]
    consts = []
    for j, mat in enumerate(mats):
        cmat = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            exps = set()
            for k in range(d):
                poly = mat[i][k]
                if poly.is_zero():
                    continue
                if len(poly.terms) != 1:
                    raise ValueError("entry (%d,%d) of matrix %d is not a "
                                     "z-monomial" % (i + 1, k + 1, j + 1))
                (m, c), = poly.terms.items()
                if any(m[:-1]):
                    raise ValueError("matrix entries must involve z only")
                exps.add(m[-1])
                cmat[i][k] = c
            if len(exps) > 1:
                raise ValueError("row %d of matrix %d mixes z-powers"
                                 % (i + 1, j + 1))
            weights[i][j] = exps.pop() if exps else 0
        consts.append(cmat)
    # the fiber of diag(z^v) A is the initial ideal for weights M_j - v_ij
    for j in range(n):
        mj = max(weights[i][j] for i in range(d))
        for i in range(d):
            weights[i][j] = mj - weights[i][j]
    return weights, consts


def load_matrix_file(path):
    """The matrix list of a JSON file, bare or under "matrices"; decimals
    are read as exact Fractions (0.1 is 1/10)."""
    with open(path) as fh:
        data = json.load(fh, parse_float=Fraction)
    mats = data.get("matrices") if isinstance(data, dict) else data
    if not (isinstance(mats, list) and all(
            isinstance(m, list) and all(isinstance(r, list) for r in m) for m in mats)):
        raise ValueError("%s holds no list of matrices (lists of rows)" % path)
    for x in (x for m in mats for r in m for x in r):
        if type(x) not in (int, Fraction, str):  # bool is not a number here
            raise ValueError("matrix entry %r is not a number or a string" % (x,))
    return mats


def cmd_deligne(args):
    mats_raw = load_matrix_file(args.matrices)
    n = len(mats_raw)
    d = len(mats_raw[0]) if n else 0
    if min(d, n) < 2:
        # one matrix or one row has no 2x2 minors, as for gin
        raise ValueError("need at least 2 matrices of size at least 2")
    mats = groebner.load_matrices_json(mats_raw, d, n)
    if args.route == "weight":
        weights, consts = _weights_from_monomial_diagonal(mats, d, n)
        ideal = groebner.weight_initial_route(weights, consts, d, n)
        emit_json({"route": "weight", "ideal": ideal.to_json(),
                   "squarefree": ideal.is_squarefree()})
        return 0
    fiber = groebner.special_fiber(mats, d, n)
    out = {"route": "sat",
           "generators": [g.pretty() for g in fiber]}
    try:
        ideal = groebner.fiber_monomial_ideal(fiber, d, n)
        out["ideal"] = ideal.to_json()
        out["squarefree"] = ideal.is_squarefree()
    except ValueError:
        out["squarefree"] = False
        out["monomial"] = False
    emit_json(out)
    return 0


def cmd_gin(args):
    report = groebner.gin_sample(args.d, args.n, args.trials, args.seed)
    emit_json({
        "d": args.d, "n": args.n, "seed": args.seed,
        "all_ok": report.all_ok,
        "trials": [{"kind": t.kind, "squarefree": t.squarefree,
                    "series_ok": t.series_ok, "equals_z": t.equals_z,
                    "redraws": t.redraws} for t in report.trials],
    })
    return 0 if report.all_ok else 1


def cmd_collineations(args):
    rng = Random(args.seed)
    out = []
    for k in range(args.sample):
        U = groebner.random_invertible(3, rng)
        V = groebner.random_invertible(3, rng)
        vals = embeddings.plucker_param(U, V)
        counts = embeddings.plucker_classification_counts(vals)
        cm = embeddings.collineation_matrices(embeddings.uv_coeff_matrix(U, V))
        out.append({"sample": k, "counts": list(counts),
                    "ranks": [cm.rank_first, cm.rank_second]})
    ok = all(o["counts"] == [6, 12, 66] and max(o["ranks"]) <= 8 for o in out)
    emit_json({"seed": args.seed, "samples": out, "all_ok": ok})
    return 0 if ok else 1


def cmd_lafforgue(args):
    mats = [[[groebner.parse_fraction(x) for x in row] for row in mat]
            for mat in load_matrix_file(args.matrices)]
    coords = embeddings.lafforgue_coordinates(mats)
    emit_json({"types": [{"type": list(t), "minors": vec}
                         for t, vec in sorted(coords.items())]})
    return 0


def cmd_verify_all(args):
    return verify.verify_all(only=args.only)


def _count(text):
    """A non-negative integer argument."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative: %r" % text)
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hilbdiag",
        description="Exact toolkit for degenerations of diagonal embeddings: "
                    "distinguished monomial ideals, tree spaces, tangent "
                    "spaces, censuses and special fibers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("borel", help="the distinguished Borel-fixed ideal, "
                                     "its shelling and h-polynomial")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shelling", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_borel)

    p = sub.add_parser("trees", help="trees with labeled directed edges and "
                                     "their ideals and moves graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", choices=("dot", "json"))
    p.add_argument("--ideals", action="store_true")
    p.set_defaults(fn=cmd_trees)

    p = h33_parser = sub.add_parser(
        "h33", help="census of the 3x3 monomial ideals, symmetry classes "
                    "and representatives")
    p.add_argument("--classes", action="store_true")
    p.add_argument("--table1", action="store_true")
    p.add_argument("--reps", action="store_true")
    p.add_argument("--bound", type=_count, help="degree bound of --reps (default 4)")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_h33)

    p = tangent_parser = sub.add_parser(
        "tangent", help="tangent space dimension at a monomial ideal, or "
                        "the explicit chain basis")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ideal", help="JSON file with the ideal")
    source.add_argument("--basis", choices=("chain",),
                        help="emit a named basis")
    p.add_argument("--d", type=int, help="with --basis only")
    p.add_argument("--n", type=int, help="with --basis only")
    p.set_defaults(fn=cmd_tangent)

    p = sub.add_parser("deligne", help="special fiber of a one-parameter "
                                       "family, by saturation or weights")
    p.add_argument("--matrices", required=True)
    p.add_argument("--route", choices=("sat", "weight"), default="sat")
    p.set_defaults(fn=cmd_deligne)

    p = gin_parser = sub.add_parser("gin", help="seeded initial-ideal "
                                                "sampling of transformed "
                                                "minor ideals")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gin)

    p = sub.add_parser("collineations", help="Plucker classification and "
                                             "rank tests for quadric nets")
    p.add_argument("--sample", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_collineations)

    p = sub.add_parser("lafforgue", help="scaled-minor coordinates of a "
                                         "matrix tuple")
    p.add_argument("--matrices", required=True)
    p.set_defaults(fn=cmd_lafforgue)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--only", nargs="+",
                   choices=[name for name, _ in verify.ALL_CHECKS],
                   help="subset of check names")
    p.set_defaults(fn=cmd_verify_all)

    args = parser.parse_args(argv)
    if args.fn is cmd_tangent and args.ideal and (args.d, args.n) != (None, None):
        # one line, like every other fault of an --ideal run
        parser.exit(2, "%s: error: --d and --n belong to --basis\n" % parser.prog)
    if args.fn is cmd_tangent and args.basis:
        if None in (args.d, args.n):
            tangent_parser.error("--basis needs --d and --n")
        if min(args.d, args.n) < 1:
            tangent_parser.error("--d and --n must be at least 1")
    if args.fn is cmd_h33 and args.csv and not args.table1:
        h33_parser.error("--csv needs --table1")
    if args.fn is cmd_h33 and args.bound is not None and not args.reps:
        h33_parser.error("--bound needs --reps")
    if args.fn is cmd_gin and min(args.d, args.n) < 2:
        # one row or one column has no 2x2 minors
        gin_parser.error("--d and --n must be at least 2")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # bad input: missing or malformed files, singular matrices
        parser.exit(2, "%s: error: %s\n" % (parser.prog, exc))


if __name__ == "__main__":
    sys.exit(main())
