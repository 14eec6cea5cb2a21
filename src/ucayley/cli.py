"""Command-line surface.

Exit codes: 0 for a definite answer, 2 when a budget left the question
inconclusive, 1 for usage or semantic errors.  JSON mode prints exactly one
object with canonically ordered keys.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions as cons
from .complexes import (SHELLING_UNKNOWN, codim1_connected, export_stanley_reisner,
                        find_shelling, independence_complex, is_pure)
from .graphs import build_graph, export_dot, graph_json
from .indsets import Budget, BudgetExceededError, independence_number, is_well_covered
from .rings import (DEFAULT_RING_CAP, GFRing, RingError,
                    jacobson_radical, make_ring, parse_spec, ring_metadata)
from .graphs import DEFAULT_GRAPH_CAP
from .structure import classify_cm, classify_gorenstein, classify_well_covered
from .verify import run_checks

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class CliError(Exception):
    pass


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _budget(args):
    nodes = args.budget_nodes
    seconds = args.budget_seconds
    try:
        if nodes is None and "UCAYLEY_BUDGET_NODES" in os.environ:
            nodes = int(os.environ["UCAYLEY_BUDGET_NODES"])
        if seconds is None and "UCAYLEY_BUDGET_SECONDS" in os.environ:
            seconds = float(os.environ["UCAYLEY_BUDGET_SECONDS"])
        return Budget(max_nodes=nodes, max_seconds=seconds)
    except ValueError as exc:
        raise CliError("bad budget: %s" % exc) from None


def _ring_for(args):
    spec = parse_spec(args.ring)
    return make_ring(spec, cap=args.max_ring_order)


def _graph_for(args):
    return build_graph(_ring_for(args), cap=args.max_graph_vertices)


def _add_common(sub, ring=True, formats=("text", "json")):
    if ring:
        sub.add_argument("--ring", required=True, help="ring spec, e.g. 'M(2,GF(3))'")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--max-ring-order", type=int, default=DEFAULT_RING_CAP)
    sub.add_argument("--max-graph-vertices", type=int, default=DEFAULT_GRAPH_CAP)
    sub.add_argument("--budget-nodes", type=int, default=None)
    sub.add_argument("--budget-seconds", type=float, default=None)
    sub.add_argument("--seed", type=int, default=0)


def cmd_ring(args):
    meta = ring_metadata(_ring_for(args))
    _emit(args, meta, "spec: %(spec)s\norder: %(order)d\nunit_count: %(unit_count)d\n"
          "radical_size: %(radical_size)d" % meta)
    return EXIT_OK


def cmd_graph(args):
    g = _graph_for(args)
    if args.format == "dot":
        sys.stdout.write(export_dot(g))
    elif args.format == "json":
        print(json.dumps(graph_json(g), sort_keys=True))
    else:
        print("graph on %d vertices with %d edges" % (g.n, g.edge_count()))
    return EXIT_OK


def cmd_alpha(args):
    budget = _budget(args)
    try:
        alpha = independence_number(_graph_for(args), budget)
    except BudgetExceededError as exc:
        _emit(args, {"answer": "inconclusive", "reason": str(exc), "stats": budget.stats()},
              "inconclusive: %s" % exc)
        return EXIT_INCONCLUSIVE
    _emit(args, {"ring": args.ring, "alpha": alpha, "stats": budget.stats()}, str(alpha))
    return EXIT_OK


def cmd_wellcovered(args):
    budget = _budget(args)
    rep = is_well_covered(_graph_for(args), budget)
    payload = {"ring": args.ring, "stats": budget.stats()}
    payload.update(rep.to_json())
    lines = ["well-covered: %s" % rep.answer,
             "alpha: %s%d" % ("" if rep.alpha_exact else ">= ", rep.alpha)]
    if rep.witness_small is not None:
        lines.append("witness (maximal, non-maximum): %s" % (list(rep.witness_small),))
    if rep.complete:
        lines.append("maximal sets by size: %s" % (dict(sorted(rep.counts.items())),))
    _emit(args, payload, "\n".join(lines))
    return EXIT_INCONCLUSIVE if rep.answer == "inconclusive" else EXIT_OK


def cmd_classify(args):
    spec = parse_spec(args.ring)
    fn = {"wellcovered": classify_well_covered, "cm": classify_cm,
          "gorenstein": classify_gorenstein}[args.question]
    verdict = fn(spec)
    payload = {"ring": str(spec), "question": args.question}
    payload.update(verdict.to_json())
    _emit(args, payload, "%s: %s (clause: %s)" % (args.question,
          "yes" if verdict.answer else "no", verdict.clause))
    return EXIT_OK


def cmd_radical(args):
    ring = _ring_for(args)
    rad = jacobson_radical(ring)
    _emit(args, {"ring": args.ring, "radical": list(rad), "size": len(rad)},
          " ".join(str(x) for x in rad))
    return EXIT_OK


def cmd_complex(args):
    g = _graph_for(args)
    budget = _budget(args)  # one budget for the enumeration and the shelling search
    try:
        c = independence_complex(g, budget)
    except BudgetExceededError as exc:
        _emit(args, {"answer": "inconclusive", "reason": str(exc)},
              "inconclusive: %s" % exc)
        return EXIT_INCONCLUSIVE
    payload = {
        "ring": args.ring,
        "n": c.n,
        "dim": c.dim,
        "pure": is_pure(c),
        "facets": [list(f) for f in c.facets],
    }
    lines = ["%d facets, dim %d, pure: %s" % (len(c.facets), c.dim, is_pure(c))]
    if is_pure(c):
        connected, comps = codim1_connected(c)
        payload["codim1_connected"] = connected
        lines.append("connected in codimension 1: %s (%d components)"
                     % (connected, len(comps)))
        if args.shelling:
            res = find_shelling(c, budget)
            payload["shelling"] = res.to_json()
            lines.append("shelling: %s" % res.status)
            if res.order is not None:
                lines.append("order: %s" % (list(res.order),))
            _emit(args, payload, "\n".join(lines))
            return EXIT_INCONCLUSIVE if res.status == SHELLING_UNKNOWN else EXIT_OK
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _parse_matrix(text, n, field):
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != n:
        raise CliError("expected %d matrix rows" % n)
    entries = []
    for row in rows:
        cells = [c for c in row.split(",") if c.strip()]
        if len(cells) != n:
            raise CliError("expected %d entries per row" % n)
        for c in cells:
            v = int(c)
            field.check_index(v)
            entries.append(v)
    return tuple(entries)


def _fmt_matrix(entries, n):
    return ";".join(",".join(str(entries[i * n + j]) for j in range(n)) for i in range(n))


def cmd_construct(args):
    try:
        return _construct(args)
    except ValueError as exc:  # a non-integer entry, or parameters a construction rejects
        raise CliError(str(exc)) from None


def _construct(args):
    field = GFRing(args.q)
    n = args.n
    if args.kind == "dfamily":
        fam = cons.d_family(n, field)
        payload = {"kind": "dfamily", "n": n, "q": args.q, "size": len(fam),
                   "matrices": [_fmt_matrix(m, n) for m in fam]}
        _emit(args, payload, "\n".join(_fmt_matrix(m, n) for m in fam))
    elif args.kind == "reduced-diagonal":
        if args.k is None or args.l is None or args.coeffs is None:
            raise CliError("reduced-diagonal requires --k, --l and --coeffs")
        coeffs = tuple(int(c) for c in args.coeffs.split(",") if c.strip())
        mat = cons.reduced_diagonal(n, args.k, args.l, coeffs, field)
        payload = {"kind": "reduced-diagonal", "n": n, "q": args.q,
                   "k": args.k, "l": args.l, "matrix": _fmt_matrix(mat, n)}
        _emit(args, payload, _fmt_matrix(mat, n))
    elif args.kind == "avoidance":
        if args.matrix is None:
            raise CliError("avoidance requires --matrix 'r0c0,r0c1;...'")
        a = _parse_matrix(args.matrix, n, field)
        b = cons.avoidance_partner(a, n, field)
        payload = {"kind": "avoidance", "n": n, "q": args.q,
                   "A": _fmt_matrix(a, n), "B": _fmt_matrix(b, n)}
        _emit(args, payload, _fmt_matrix(b, n))
    else:  # product-witness
        if args.ring is None:
            raise CliError("product-witness requires --ring for the left factor")
        left = make_ring(parse_spec(args.ring), cap=args.max_ring_order)
        wit = cons.product_witness(left, n, field, graph_cap=args.max_graph_vertices)
        payload = {"kind": "product-witness", "ring": args.ring, "n": n, "q": args.q,
                   "witness": list(wit.witness), "witness_size": len(wit.witness),
                   "competing_size": len(wit.competing)}
        _emit(args, payload, "witness size %d vs competing maximal set size %d\n%s"
              % (len(wit.witness), len(wit.competing), " ".join(map(str, wit.witness))))
    return EXIT_OK


def cmd_export(args):
    g = _graph_for(args)
    if args.what == "dot":
        sys.stdout.write(export_dot(g))
    elif args.what == "json":
        print(json.dumps(graph_json(g), sort_keys=True))
    else:  # edge-ideal
        sys.stdout.write(export_stanley_reisner(g))
    return EXIT_OK


def cmd_verify_paper(args):
    report = run_checks(scale=args.scale, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for check in report["checks"]:
            print("[%s] %s - %s" % (check["status"].upper(), check["id"], check["detail"]))
        print("overall: %s" % ("pass" if report["passed"] else "fail"))
    return EXIT_OK if report["passed"] else EXIT_ERROR


def build_parser():
    parser = _Parser(prog="ucayley",
                     description="unitary Cayley graphs of finite rings: "
                                 "construction, classification, enumeration")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, formats in (
        ("ring", cmd_ring, ("text", "json")),
        ("graph", cmd_graph, ("text", "json", "dot")),
        ("alpha", cmd_alpha, ("text", "json")),
        ("wellcovered", cmd_wellcovered, ("text", "json")),
        ("radical", cmd_radical, ("text", "json")),
    ):
        sub = subs.add_parser(name)
        _add_common(sub, formats=formats)
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("classify")
    _add_common(sub)
    sub.add_argument("--question", choices=("wellcovered", "cm", "gorenstein"),
                     default="wellcovered")
    sub.set_defaults(fn=cmd_classify)

    sub = subs.add_parser("complex")
    _add_common(sub)
    sub.add_argument("--shelling", action="store_true",
                     help="also search for a shelling order")
    sub.set_defaults(fn=cmd_complex)

    sub = subs.add_parser("construct")
    _add_common(sub, ring=False)
    sub.add_argument("--kind", required=True,
                     choices=("dfamily", "reduced-diagonal", "avoidance", "product-witness"))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--l", type=int, default=None)
    sub.add_argument("--coeffs", default=None, help="comma-separated field indices")
    sub.add_argument("--matrix", default=None, help="semicolon-separated rows")
    sub.add_argument("--ring", default=None, help="left factor for product-witness")
    sub.set_defaults(fn=cmd_construct)

    sub = subs.add_parser("export")
    _add_common(sub)
    sub.add_argument("--what", choices=("edge-ideal", "dot", "json"), default="edge-ideal")
    sub.set_defaults(fn=cmd_export)

    sub = subs.add_parser("verify-paper")
    _add_common(sub, ring=False)
    sub.add_argument("--scale", choices=("small", "medium"), default="small")
    sub.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (CliError, RingError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
