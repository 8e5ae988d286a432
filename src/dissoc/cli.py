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
import tempfile
import zlib

from ._version import __version__
from .canon import DEFAULT_TREE_CAP, DEFAULT_UNICYCLIC_CAP, GENERATOR_VERSION, GENERATORS
from .families import parse_family
from .graphs import Graph, bit_list, graph6_decode, graph6_encode
from .mds import Status, enumerate_mds, phi, phi_refined
from .suites import SUITES, CorpusStore, run_suite, suite_orders

ENV_CACHE_DIR = "DISSOC_CACHE_DIR"
ENV_JOBS = "DISSOC_JOBS"


def _parse_orders(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    return int(lo), int(hi if dots else lo)


def _parse_constraint(text: str) -> tuple[int, Status]:
    if "=" not in text:
        raise ValueError(f"constraint must look like '3=in0', got {text!r}")
    vertex, status = text.split("=", 1)
    try:
        return int(vertex), Status(status.strip())
    except ValueError:
        raise ValueError(
            f"bad constraint {text!r}: status must be one of "
            f"{'|'.join(s.value for s in Status)}"
        ) from None


def _load_graph(args) -> Graph:
    if getattr(args, "family", None):
        return parse_family(args.family)
    if getattr(args, "graph6", None):
        return graph6_decode(args.graph6)
    raise ValueError("provide a graph via --family or --graph6")


class CorpusCache:
    """graph6 corpus files keyed by (class, order, generator version)."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, kind: str, n: int) -> str:
        return os.path.join(self.directory, f"{kind}_{n}_v{GENERATOR_VERSION}.g6")

    def load(self, kind: str, n: int) -> list[Graph] | None:
        """The cached corpus, or None if absent. A file whose header is
        missing or malformed, disagrees with the request or with the
        number of graphs it holds, or lacks or fails its ``crc32=``
        checksum of the graph6 lines raises ValueError."""
        path = self._path(kind, n)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="ascii") as fh:
                header, _, body = fh.read().partition("\n")
            graphs = [graph6_decode(line) for line in body.splitlines() if line]
        except ValueError as exc:
            raise ValueError(f"corrupt corpus cache file {path}: {exc}") from None
        header = header if header.startswith("#") else "#"
        fields = dict(item.partition("=")[::2] for item in header[1:].split())
        want = {"class": kind, "order": str(n), "count": str(len(graphs))}
        found = {key: fields.get(key) for key in want}
        if found != want:
            raise ValueError(
                f"corrupt corpus cache file {path}: header says {found}, request and contents say {want}"
            )
        if "crc32" not in fields:
            raise ValueError(
                f"corpus cache file {path} has no crc32= checksum, so its contents cannot be "
                "checked (older dissoc versions wrote none); delete it to rebuild it"
            )
        if fields["crc32"] != _checksum(body):
            raise ValueError(
                f"corrupt corpus cache file {path}: its graphs do not match the crc32= checksum "
                "in its header; delete it to rebuild it"
            )
        return graphs

    def store(self, kind: str, n: int, graphs: list[Graph]) -> None:
        # a private temporary file renamed into place: concurrent writers
        # write identical content, so whichever rename lands last is correct
        path = self._path(kind, n)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(format_corpus(kind, n, graphs))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _checksum(body: str) -> str:
    # CRC-32, not a hashlib digest: hashlib loads OpenSSL, which adds about
    # 4 MB of peak RSS to every process that imports it
    return f"{zlib.crc32(body.encode('ascii')):08x}"


def format_corpus(kind: str, n: int, graphs: list[Graph]) -> str:
    """A header line, whose ``crc32=`` covers the lines after it, and one
    graph6 line per graph."""
    body = "".join(graph6_encode(g).decode("ascii") + "\n" for g in graphs)
    return (
        f"# class={kind} order={n} count={len(graphs)} generator={GENERATOR_VERSION} "
        f"crc32={_checksum(body)}\n" + body
    )


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
    count = 0
    for s in enumerate_mds(g):
        print("{" + ",".join(str(v) for v in bit_list(s)) + "}")
        count += 1
    print(f"count {count}")
    return 0


def cmd_gen(args) -> int:
    kind = args.klass
    n = args.order
    cap = args.tree_cap if kind in ("tree", "caterpillar") else args.unicyclic_cap
    graphs = list(GENERATORS[kind](n, cap=cap))
    text = format_corpus(kind, n, graphs)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"count {len(graphs)}", file=sys.stderr)
    return 0


def _reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def _reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["suite", "n", "graphs", "min_phi", "bound", "pass"])
    writer.writeheader()
    for r in reports:
        writer.writerow(r.summary_row())
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
    orders = _parse_orders(args.orders) if args.orders else None
    cache = CorpusCache(args.cache_dir) if args.cache_dir else None
    corpora = CorpusStore(args.tree_cap, args.unicyclic_cap, cache)
    # every domain is resolved before any suite runs, so an empty one fails
    # at once
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ranges = {name: suite_orders(name, orders) for name in names}
    reports = []
    for name, resolved in ranges.items():
        reports += run_suite(name, resolved, args.jobs, corpora)
    text = _FORMATS[args.format](reports)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
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
        p.add_argument("--family", help='family spec, e.g. "U(2,2)", "T(3,1)", "Urt(5,2)", "P(7)", "C(6)"')
        p.add_argument("--graph6", help="graph6 string")

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
    p_gen.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    p_gen.add_argument("--unicyclic-cap", type=int, default=DEFAULT_UNICYCLIC_CAP)
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--orders", help="order or range, e.g. 7 or 3..12")
    p_ver.add_argument(
        "--jobs",
        type=int,
        default=int(os.environ.get(ENV_JOBS, "1")),
        help="worker processes (default 1, env DISSOC_JOBS)",
    )
    p_ver.add_argument("--format", choices=sorted(_FORMATS), default="text")
    p_ver.add_argument("--output", help="report path (default stdout)")
    p_ver.add_argument(
        "--cache-dir",
        default=os.environ.get(ENV_CACHE_DIR),
        help="corpus cache directory (env DISSOC_CACHE_DIR)",
    )
    p_ver.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    p_ver.add_argument("--unicyclic-cap", type=int, default=DEFAULT_UNICYCLIC_CAP)
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
