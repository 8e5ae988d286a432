"""Where a run's corpora come from: the caps, the per-run store and the
graph6 cache files."""

from __future__ import annotations

import os
import tempfile
import zlib

from .canon import GENERATOR_VERSION, GENERATORS
from .graphs import Graph, graph6_decode, graph6_encode

DEFAULT_TREE_CAP = 14
DEFAULT_UNICYCLIC_CAP = 13


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


class CorpusStore:
    """The corpora of a run, by class (a key of ``canon.GENERATORS``). Each
    (class, order) is read from the ``CorpusCache`` of ``cache_dir``, if
    one is given, or generated at most once, and kept. Only the store
    enforces the caps: an order above its class's cap is an error, cached
    or not (caterpillars take the tree cap)."""

    def __init__(self, tree_cap: int = DEFAULT_TREE_CAP, unicyclic_cap: int = DEFAULT_UNICYCLIC_CAP,
                 cache_dir: str | None = None):
        self.caps = {"tree": tree_cap, "caterpillar": tree_cap, "unicyclic": unicyclic_cap}
        self.cache = CorpusCache(cache_dir) if cache_dir else None
        self.corpora: dict[tuple[str, int], list[Graph]] = {}

    def graphs(self, kind: str, lo: int, hi: int) -> list[Graph]:
        """The corpora of orders lo..hi, in order of order, once hi is within the cap."""
        self.check_cap(kind, hi)
        return [g for n in range(lo, hi + 1) for g in self._corpus(kind, n)]

    def check_cap(self, kind: str, n: int) -> None:
        """Refuse an order above its class's cap, before any corpus is made."""
        if n > self.caps[kind]:
            raise ValueError(f"{kind} corpus of order {n} is above its cap {self.caps[kind]}")

    def _corpus(self, kind: str, n: int) -> list[Graph]:
        if (kind, n) not in self.corpora:
            graphs = self.cache.load(kind, n) if self.cache else None
            if graphs is None:
                graphs = list(GENERATORS[kind](n))
                if self.cache:
                    self.cache.store(kind, n, graphs)
            self.corpora[kind, n] = graphs
        return self.corpora[kind, n]
