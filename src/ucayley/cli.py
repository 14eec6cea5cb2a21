"""Command-line surface.

Exit codes: 0 for a definite answer, 2 when a budget left the question
inconclusive, 1 for usage or semantic errors.  JSON mode prints exactly one
object with canonically ordered keys.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import constructions as cons
from .complexes import (SHELLING_UNKNOWN, codim1_connected, find_shelling,
                        independence_complex, is_pure)
from .graphs import (DEFAULT_GRAPH_CAP, build_graph, export_dot, export_stanley_reisner,
                     graph_json)
from .indsets import Budget, BudgetExceededError, independence_number, is_well_covered
from .rings import (DEFAULT_RING_CAP, GF, M, Prod, RingError, jacobson_radical,
                    join_digits, make_ring, parse_spec, split_digits)
from .structure import classify_cm, classify_gorenstein, classify_well_covered, ring_metadata
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
    try:
        return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)
    except ValueError as exc:
        raise CliError("bad budget: %s" % exc) from None


def _ring_for(args):
    return make_ring(args.ring, cap=args.max_ring_order)


def _graph_for(args):
    # build_graph caps the vertex count, which is |R|; make_ring keeps its own cap
    return build_graph(make_ring(args.ring), cap=args.max_graph_vertices)


# Each subcommand declares only the options its handler reads.
_OPTIONS = {
    "--ring": dict(required=True, help="ring spec, e.g. 'M(2,GF(3))'"),
    "--max-ring-order": dict(type=int, default=DEFAULT_RING_CAP),
    "--max-graph-vertices": dict(type=int, default=DEFAULT_GRAPH_CAP),
    "--budget-nodes": dict(type=int, default=None),
    "--budget-seconds": dict(type=float, default=None),
    "--seed": dict(type=int, default=0),
    "--n": dict(type=int, required=True),
    "--q": dict(type=int, required=True),
    "--k": dict(type=int, required=True),
    "--l": dict(type=int, required=True),
    "--coeffs": dict(required=True, help="comma-separated field indices"),
    "--matrix": dict(required=True, help="semicolon-separated rows"),
}
_SEARCH_OPTIONS = ("--ring", "--max-graph-vertices", "--budget-nodes", "--budget-seconds")
_FIELD = ("--n", "--q", "--max-ring-order")  # every construction builds the field F_q


def cmd_ring(args):
    meta = ring_metadata(_ring_for(args))
    _emit(args, meta, "spec: %(spec)s\norder: %(order)d\nunit_count: %(unit_count)d\n"
          "radical_size: %(radical_size)d" % meta)
    return EXIT_OK


def cmd_graph(args):
    g = _graph_for(args)
    if args.format == "dot":
        sys.stdout.write(export_dot(g))
    elif args.format == "edge-ideal":
        try:
            text = export_stanley_reisner(g)
        except ValueError as exc:  # over the export cap
            raise CliError(str(exc)) from None
        sys.stdout.write(text)
    elif args.format == "json":
        print(graph_json(g))
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
        _emit(args, {"answer": "inconclusive", "reason": str(exc), "stats": budget.stats()},
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
    code = EXIT_OK
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
            if res.status == SHELLING_UNKNOWN:
                code = EXIT_INCONCLUSIVE
    payload["stats"] = budget.stats()
    _emit(args, payload, "\n".join(lines))
    return code


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
    field = make_ring(GF(args.q), cap=args.max_ring_order)
    n = args.n
    if args.kind == "dfamily":
        fam = cons.d_family(n, field)
        payload = {"kind": "dfamily", "n": n, "q": args.q, "size": len(fam),
                   "matrices": [_fmt_matrix(m, n) for m in fam]}
        _emit(args, payload, "\n".join(_fmt_matrix(m, n) for m in fam))
    elif args.kind == "reduced-diagonal":
        coeffs = tuple(int(c) for c in args.coeffs.split(",") if c.strip())
        mat = cons.reduced_diagonal(n, args.k, args.l, coeffs, field)
        payload = {"kind": "reduced-diagonal", "n": n, "q": args.q,
                   "k": args.k, "l": args.l, "matrix": _fmt_matrix(mat, n)}
        _emit(args, payload, _fmt_matrix(mat, n))
    elif args.kind == "avoidance":
        a = _parse_matrix(args.matrix, n, field)
        # a row at a time: one join or split over all n^2 digits costs O(n^4)
        entry, row = (args.q,) * n, (args.q ** n,) * n
        index = join_digits([join_digits(a[i:i + n], entry) for i in range(0, n * n, n)], row)
        b = [e for r in split_digits(cons.avoidance_partner(index, n, field), row)
             for e in split_digits(r, entry)]
        payload = {"kind": "avoidance", "n": n, "q": args.q,
                   "A": _fmt_matrix(a, n), "B": _fmt_matrix(b, n)}
        _emit(args, payload, _fmt_matrix(b, n))
    else:  # product-witness
        # the cap covers the ring built, R x M_n(F_q), not R alone
        prod = make_ring(Prod((parse_spec(args.ring), M(n, GF(args.q)))),
                         cap=args.max_ring_order)
        wit = cons.product_witness(*prod.factors, graph_cap=args.max_graph_vertices)
        payload = {"kind": "product-witness", "ring": args.ring, "n": n, "q": args.q,
                   "witness": list(wit.witness), "witness_size": len(wit.witness),
                   "competing_size": len(wit.competing)}
        _emit(args, payload, "witness size %d vs competing maximal set size %d\n%s"
              % (len(wit.witness), len(wit.competing), " ".join(map(str, wit.witness))))
    return EXIT_OK


def cmd_verify_paper(args):
    report = run_checks(scale=args.scale, seed=args.seed)
    lines = ["[%s] %s - %s" % (check["status"].upper(), check["id"], check["detail"])
             for check in report["checks"]]
    lines.append("overall: %s" % ("pass" if report["passed"] else "fail"))
    _emit(args, report, "\n".join(lines))
    return EXIT_OK if report["passed"] else EXIT_ERROR


def build_parser():
    parser = _Parser(prog="ucayley",
                     description="unitary Cayley graphs of finite rings: "
                                 "construction, classification, enumeration")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, fn, *options, formats=("text", "json"), group=subs):
        p = group.add_parser(name)
        p.add_argument("--format", choices=formats, default="text")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(fn=fn)
        return p

    sub("ring", cmd_ring, "--ring", "--max-ring-order")
    sub("radical", cmd_radical, "--ring", "--max-ring-order")
    sub("classify", cmd_classify, "--ring").add_argument(
        "--question", choices=("wellcovered", "cm", "gorenstein"), default="wellcovered")
    sub("graph", cmd_graph, "--ring", "--max-graph-vertices",
        formats=("text", "json", "dot", "edge-ideal"))
    sub("alpha", cmd_alpha, *_SEARCH_OPTIONS)
    sub("wellcovered", cmd_wellcovered, *_SEARCH_OPTIONS)
    sub("complex", cmd_complex, *_SEARCH_OPTIONS).add_argument(
        "--shelling", action="store_true", help="also search for a shelling order")

    kinds = subs.add_parser("construct").add_subparsers(dest="kind", required=True)
    sub("dfamily", cmd_construct, *_FIELD, group=kinds)
    sub("reduced-diagonal", cmd_construct, *_FIELD, "--k", "--l", "--coeffs", group=kinds)
    sub("avoidance", cmd_construct, *_FIELD, "--matrix", group=kinds)
    sub("product-witness", cmd_construct, *_FIELD, "--ring", "--max-graph-vertices", group=kinds)

    sub("verify-paper", cmd_verify_paper, "--seed").add_argument(
        "--scale", choices=("small", "medium"), default="small")

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
