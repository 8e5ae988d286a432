"""Command-line front end: counting, enumeration, corpus generation, and
verification with file-based reports.

Exit codes: 0 success / all suites pass, 1 violations found, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from ._version import __version__
from .canon import GENERATORS
# CorpusCache is imported for its users that look it up as dissoc.cli.CorpusCache
from .corpus import DEFAULT_TREE_CAP, DEFAULT_UNICYCLIC_CAP, CorpusCache, CorpusStore, format_corpus
from .families import parse_family
from .graphs import Graph, graph6_decode
from .mds import Status, enumerate_mds, phi, phi_refined
from .suites import SUITES, run_suite, start_suite, suite_orders

ENV_CACHE_DIR = "DISSOC_CACHE_DIR"
ENV_JOBS = "DISSOC_JOBS"
# the most sets `mds` lists, a few seconds of output
MDS_LIST_LIMIT = 100_000


def _parse_orders(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"--orders must be an order or a range, e.g. 7 or 3..12, got {text!r}") from None


def _parse_constraint(text: str) -> tuple[int, Status]:
    if "=" not in text:
        raise ValueError(f"constraint must look like '3=in0', got {text!r}")
    vertex, status = text.split("=", 1)
    try:
        vertex = int(vertex)
    except ValueError:
        raise ValueError(f"bad constraint {text!r}: vertex {vertex!r} is not an integer") from None
    try:
        return vertex, Status(status.strip())
    except ValueError:
        raise ValueError(
            f"bad constraint {text!r}: status must be one of "
            f"{'|'.join(s.value for s in Status)}"
        ) from None


def _load_graph(args) -> Graph:
    return parse_family(args.family) if args.family is not None else graph6_decode(args.graph6)


def cmd_phi(args) -> int:
    g = _load_graph(args)
    constraints = [_parse_constraint(c) for c in args.constraint or []]
    if constraints:
        print(phi_refined(g, constraints))
    else:
        print(phi(g))
    return 0


def cmd_mds(args) -> int:
    g = _load_graph(args)
    total = phi(g)  # counted first: listing and printing take about 6 us per set
    if total > MDS_LIST_LIMIT:
        raise ValueError(f"the graph has {total} maximal dissociation sets; mds lists at most {MDS_LIST_LIMIT}")
    names = [str(v) for v in range(g.n)]
    # v is in s iff the v-th binary digit of s from the right is 1
    lines = [
        "{" + ",".join([names[v] for v, b in enumerate(format(s, "b")[::-1]) if b == "1"]) + "}\n"
        for s in enumerate_mds(g)
    ]
    sys.stdout.write("".join(lines) + f"count {len(lines)}\n")
    return 0


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    kind = args.klass
    n = args.order
    graphs = CorpusStore(args.tree_cap, args.unicyclic_cap).graphs(kind, n, n)
    _emit(format_corpus(kind, n, graphs), args.output)
    print(f"count {len(graphs)}", file=sys.stderr)
    return 0


def _reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def _reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["suite", "n", "graphs", "min_phi", "bound", "pass"])
    writer.writerows([r.suite, r.order, r.graphs_examined, r.min_phi, r.bound, r.passed] for r in reports)
    return buf.getvalue()


def _reports_to_text(reports) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = ""
        if r.min_phi is not None:
            extra = f" min_phi={r.min_phi} bound={r.bound} minimizers={len(r.minimizers)}"
        ms = f" ({r.runtime_ms:.0f} ms)" if r.runtime_ms is not None else ""
        lines.append(f"[{status}] {r.suite} n={r.order} graphs={r.graphs_examined}{extra}{ms}")
        for v in r.violations:
            lines.append(f"    violation {v.rule}: lhs={v.lhs} rhs={v.rhs} {v.graph6}")
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"suites: {len(reports)}  failed: {failed}")
    return "\n".join(lines) + "\n"


_FORMATS = {"json": _reports_to_json, "csv": _reports_to_csv, "text": _reports_to_text}


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    orders = _parse_orders(args.orders) if args.orders is not None else None
    corpora = CorpusStore(args.tree_cap, args.unicyclic_cap, args.cache_dir)
    # every domain and cap is resolved before any suite runs, so an empty
    # range or one past a cap fails at once
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ranges = {name: suite_orders(name, orders, corpora) for name in names}
    # every suite's maps are queued on the pool before the first report is
    # finished, so the workers need not wait while the parent reads the next
    # corpus or builds a report; reports are finished in table order
    started = {name: start_suite(name, resolved, args.jobs, corpora) for name, resolved in ranges.items()}
    reports = [report for name, runs in started.items() for report in run_suite(name, started=runs)]
    _emit(_FORMATS[args.format](reports), args.output)
    if args.output:
        print(f"report written to {args.output}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissoc",
        description="Count and enumerate maximal dissociation sets; "
        "generate graph corpora; run the verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"dissoc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        graph = p.add_mutually_exclusive_group(required=True)
        graph.add_argument("--family", help='family spec, e.g. "U(2,2)", "T(3,1)", "Urt(5,2)", "P(7)", "C(6)"')
        graph.add_argument("--graph6", help="graph6 string")

    def add_cap_args(p):
        p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
        p.add_argument("--unicyclic-cap", type=int, default=DEFAULT_UNICYCLIC_CAP)

    p_phi = sub.add_parser("phi", help="count maximal dissociation sets")
    add_graph_args(p_phi)
    p_phi.add_argument(
        "--constraint",
        action="append",
        metavar="V=KIND",
        help="refined count constraint, KIND in excluded|in|in0|in1 (repeatable)",
    )
    p_phi.set_defaults(func=cmd_phi)

    p_mds = sub.add_parser("mds", help="list all maximal dissociation sets")
    add_graph_args(p_mds)
    p_mds.set_defaults(func=cmd_mds)

    p_gen = sub.add_parser("gen", help="write a graph6 corpus of one order")
    p_gen.add_argument("--class", dest="klass", required=True, choices=sorted(GENERATORS))
    p_gen.add_argument("--order", type=int, required=True)
    p_gen.add_argument("--output", help="output path (default stdout)")
    add_cap_args(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--orders", help="order or range, e.g. 7 or 3..12")
    p_ver.add_argument(
        "--jobs",
        type=int,
        # argparse converts a string default only when verify is parsed, so a
        # bad DISSOC_JOBS is a usage error of verify alone
        default=os.environ.get(ENV_JOBS, "1"),
        help="worker processes, at most one per CPU (default 1, env DISSOC_JOBS)",
    )
    p_ver.add_argument("--format", choices=sorted(_FORMATS), default="text")
    p_ver.add_argument("--output", help="report path (default stdout)")
    p_ver.add_argument(
        "--cache-dir",
        default=os.environ.get(ENV_CACHE_DIR),
        help="corpus cache directory (env DISSOC_CACHE_DIR)",
    )
    add_cap_args(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
