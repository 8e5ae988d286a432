"""Benchmark of the dissoc package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. Workloads (BENCHMARK.json lists the first
two and says why each was chosen):

  verify-all    ``dissoc verify --suite all --format json --jobs 2`` at
                default orders, through ``dissoc.cli.main``, no corpus cache
  corpus-build  trees 1..14, caterpillars 1..14 and unicyclic graphs 3..13:
                generate, canonical code, ``CorpusCache.store`` and ``.load``
  family-scale  paths and cycle suites beyond their default orders, then
                ``phi`` / ``phi_refined`` / ``mds_profile`` / ``enumerate_mds``
                on large named families and on random sparse connected
                graphs of order 20..40 drawn from ``--seed``. Not in
                BENCHMARK.json: a single-process run of this size spreads
                more than the end-to-end bounds allow on a shared 2-core
                host, and a third workload leaves too little time per run.
                Run it by hand to see a change to the counting core.

Every repetition runs in a fresh interpreter (``worker.py``), because the
package memoizes generated corpora for the life of a process. With
``--trace 0`` repetitions run until ``--seconds`` would be exceeded, and the
end-to-end metrics are medians over them. With ``--trace 1`` one untraced
and one traced repetition run at jobs=1, and the per-layer metrics come
from the traced one (spans recorded by ``tracing.py``). Outputs are checked
against ``reference.py``; the last stdout line is the JSON result, and the
exit code is 1 if any check failed, 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("verify-all", "corpus-build", "family-scale")
SETUP_PROBES = 5
DEADLINE_S = 165
SCRUBBED_ENV = ("DISSOC_CACHE_DIR", "DISSOC_JOBS")

# verify-all at default orders: reports per suite and the paper's bounds.
SUITE_REPORTS = {"main": 10, "trees": 10, "paths": 1, "caterpillars": 1, "cycle": 1,
                 "leaf-removal": 7, "surgery": 1, "pendant-path": 8, "subcases": 5, "identities": 1}
TREES = ref.tree_counts(14)
UNICYCLIC = ref.unicyclic_counts(13)
CATERPILLARS = ref.caterpillar_counts(14)

# family-scale inputs. Random graphs are redrawn when the reference counter
# would hold more than MAX_WIDTH vertices at once (keeps the check cheap) or
# when their count falls outside RANDOM_PHI (keeps the work per seed steady).
PATHS_TO, CYCLES_TO = 30, 28
FAMILIES = ["P(30)", "C(28)", "Urt(18,9)", "Urt(12,12)", "T(14,14)", "U(13,13)"]
RANDOM_GRAPHS = 20
RANDOM_PHI = (300, 1200)
MAX_WIDTH = 20


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Rep:
    """One worker process: its resource usage and what it wrote."""

    def __init__(self, task, wall_s, cpu_s, peak_rss_mb, exit_code, result, started):
        self.task = task
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.exit_code = exit_code
        self.result = result
        self.setup_s = result["setup_at"] - started if result else None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.result is not None


class Launcher:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in SCRUBBED_ENV and not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(work))

    def run(self, task: str, jobs: int = 1, trace: int = 0, inputs: Path | None = None) -> Rep:
        self.count += 1
        rep_dir = self.work / f"{self.count:03d}-{task}"
        rep_dir.mkdir()
        out = rep_dir / "result.json"
        cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--task", task, "--jobs", str(jobs),
               "--trace", str(trace), "--work", str(rep_dir), "--out", str(out)]
        if inputs is not None:
            cmd += ["--inputs", str(inputs)]
        with open(rep_dir / "log.txt", "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - started), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the worker and its pool down too
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # strays of a worker that died mid-run
        result = None
        if proc.returncode == 0 and out.exists():
            result = json.loads(out.read_text(encoding="utf-8"))
            if not Path(result["dissoc_file"]).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"worker imported dissoc from {result['dissoc_file']}")
        else:
            sys.stderr.write((rep_dir / "log.txt").read_text(errors="replace")[-2000:])
        return Rep(task, ended - started, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, result, started)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --- workloads -----------------------------------------------------------------


class Workload:
    """What a workload's worker task needs, and how its output is checked.
    ``check`` tallies one operation per suite report, corpus order or
    family count and returns the number of graphs whose results passed."""

    task = ""
    jobs = 1
    inputs: Path | None = None
    cache_bytes = 0

    def check(self, rep: Rep, tally: Tally) -> int:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks across all repetitions of the run."""

    def pendant_path_graphs(self) -> int:
        return 0


class VerifyAll(Workload):
    task = "verify-all"
    jobs = 2

    def __init__(self, seed: int, work: Path):
        self.reports: list[bytes] = []

    def check(self, rep: Rep, tally: Tally) -> int:
        expected_ops = sum(SUITE_REPORTS.values())
        if not tally.op(rep.ok and rep.result["exit_code"] == 0, f"verify-all exit status ({rep.exit_code})"):
            tally.attempted += expected_ops
            tally.failed += expected_ops
            return 0
        raw = Path(rep.result["report"]).read_bytes()
        self.reports.append(raw)
        reports = json.loads(raw)
        seen = {name: 0 for name in SUITE_REPORTS}
        graphs = 0
        for r in reports:
            suite = r["suite"]
            seen[suite] = seen.get(suite, 0) + 1
            want = _expected_examined(suite, r["order"])
            ok = not r["violations"] and (want is None or r["graphs_examined"] == want)
            if suite in ("main", "trees"):
                n = int(r["order"])
                ok = ok and r["min_phi"] == r["bound"] == (n // 2 + 2 if suite == "main" else (n + 1) // 2 + 1)
            if tally.op(ok, f"verify-all report {suite} order {r['order']}"):
                graphs += r["graphs_examined"]
        for name, want in SUITE_REPORTS.items():
            missing = want - seen.get(name, 0)
            for _ in range(abs(missing)):
                tally.op(False, f"verify-all report count for {name}: {seen.get(name, 0)} != {want}")
        return graphs

    def finish(self, tally: Tally) -> None:
        if len(self.reports) > 1:
            tally.op(all(r == self.reports[0] for r in self.reports), "verify-all JSON identical across runs")

    def pendant_path_graphs(self) -> int:
        return sum(r["graphs_examined"] for r in json.loads(self.reports[0]) if r["suite"] == "pendant-path")


def _expected_examined(suite: str, order: str) -> int | None:
    if suite == "main":
        return UNICYCLIC[int(order)]
    if suite == "trees":
        return TREES[int(order)]
    if suite == "leaf-removal":
        return ref.pendant_cycle_classes(int(order))
    lo, _, hi = order.partition("..")
    if suite == "paths":
        return int(hi) - 2
    if suite == "cycle":
        return int(hi) - int(lo) + 1
    if suite == "caterpillars":
        return sum(CATERPILLARS[3:int(hi) + 1])
    if suite in ("surgery", "identities"):
        return sum(UNICYCLIC[3:9])
    return None  # pendant-path and subcases: only "passed" is checked


class CorpusBuild(Workload):
    task = "corpus-build"
    jobs = 1
    plan = [("tree", TREES, range(1, 15)), ("caterpillar", CATERPILLARS, range(1, 15)),
            ("unicyclic", UNICYCLIC, range(3, 14))]

    def __init__(self, seed: int, work: Path):
        self.verified: set[str] = set()
        self.cache_bytes = 0

    def check(self, rep: Rep, tally: Tally) -> int:
        expected = [(kind, n, counts[n]) for kind, counts, orders in self.plan for n in orders]
        rows = rep.result["orders"] if rep.ok else []
        got = {(row["kind"], row["n"]): row for row in rows}
        graphs = 0
        cache_bytes = 0
        for kind, n, want in expected:
            row = got.get((kind, n))
            ok = row is not None and row["count"] == row["distinct_codes"] == want and row["roundtrip"]
            ok = ok and len(row["files"]) == 1
            if ok:
                data = (Path(rep.result["cache_dir"]) / row["files"][0]).read_bytes()
                cache_bytes += len(data)
                digest = hashlib.sha256(data).hexdigest()
                if digest not in self.verified and _corpus_file_ok(data, kind, n, want):
                    self.verified.add(digest)
                ok = digest in self.verified
            if tally.op(ok, f"corpus {kind} order {n}"):
                graphs += want
        self.cache_bytes = cache_bytes
        tally.op(len(rows) == len(expected), f"corpus orders built: {len(rows)} != {len(expected)}")
        return graphs


def _corpus_file_ok(data: bytes, kind: str, n: int, want: int) -> bool:
    lines = [line for line in data.splitlines() if line and not line.startswith(b"#")]
    if len(lines) != want:
        return False
    edges = n if kind == "unicyclic" else n - 1
    for line in lines:
        adj = ref.graph6_adjacency(line)
        if len(adj) != n or sum(row.bit_count() for row in adj) != 2 * edges or not ref.is_connected(adj):
            return False
        if kind == "caterpillar" and not ref.is_caterpillar(adj):
            return False
    return True


class FamilyScale(Workload):
    task = "family-scale"
    jobs = 1

    def __init__(self, seed: int, work: Path):
        self.graphs = []  # (label, adjacency)
        self.expected = []  # (phi, phi with vertex 0 excluded)
        for spec in FAMILIES:
            kind, _, args = spec.rstrip(")").partition("(")
            n, edges = ref.family_edges(kind, tuple(int(a) for a in args.split(",")))
            self._add(spec, ref.adjacency(n, edges))
        rng = random.Random(seed)
        random_graphs = []
        while len(random_graphs) < RANDOM_GRAPHS:
            n, edges = _random_graph(rng)
            adj = ref.adjacency(n, edges)
            width, order = ref.frontier_width(adj)
            if width > MAX_WIDTH:
                continue
            phi = ref.count_mds(adj, order=order)
            if RANDOM_PHI[0] <= phi <= RANDOM_PHI[1]:
                random_graphs.append([n, edges])
                self._add(f"random n={n} m={len(edges)}", adj, phi, order)
        self.inputs = work / "family-inputs.json"
        self.inputs.write_text(json.dumps({"paths_to": PATHS_TO, "cycles_to": CYCLES_TO,
                                           "families": FAMILIES, "random": random_graphs}))

    def _add(self, label, adj, phi=None, order=None):
        order = order or ref.frontier_width(adj)[1]
        if phi is None:
            phi = ref.count_mds(adj, order=order)
        self.graphs.append((label, adj))
        self.expected.append((phi, ref.count_mds(adj, (0, ref.EXCLUDED), order)))

    def check(self, rep: Rep, tally: Tally) -> int:
        graphs = 0
        reports = rep.result["reports"] if rep.ok else []
        for suite, examined in (("paths", PATHS_TO - 2), ("cycle", CYCLES_TO - 3)):
            match = [r for r in reports if r["suite"] == suite]
            if tally.op(len(match) == 1 and not match[0]["violations"] and match[0]["graphs_examined"] == examined,
                        f"family-scale {suite} suite"):
                graphs += examined
        counts = rep.result["graphs"] if rep.ok else []
        for i, (label, adj) in enumerate(self.graphs):
            phi, excluded = self.expected[i]
            c = counts[i] if i < len(counts) else None
            ok = (c is not None and c["phi"] == c["profile_total"] == c["sets"] == phi
                  and c["excluded0"] == c["profile_excluded0"] == excluded
                  and c["profile_sums_ok"] and c["ascending"]
                  and all(ref.is_maximal_dissociation(adj, s) for s in c["sample"]))
            if tally.op(ok, f"family-scale counts of {label}"):
                graphs += 1
        return graphs


def _random_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Uniform random labelled tree (Pruefer code) plus 2..4 extra edges,
    each closing a cycle of length 3..5, so the graph is connected, sparse,
    and neither a tree nor unicyclic. Vertices are then numbered in
    breadth-first order, as the package's own families and generators number
    theirs. Both choices keep the package's search cost close to
    proportional to the count: with random labels or long chords it swings
    by orders of magnitude between graphs of equal count."""
    n = rng.randint(20, 40)
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = set()
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.add((u, v))
    tree = ref.adjacency(n, edges)
    target = n - 1 + rng.randint(2, 4)
    while len(edges) < target:
        a = rng.randrange(n)
        near = ring = 1 << a
        for _ in range(4):  # grow to every vertex within tree distance 4
            grown = 0
            for w in ref.bits(ring):
                grown |= tree[w]
            ring = grown & ~near
            near |= ring
        chords = sorted(ref.bits(near & ~(1 << a) & ~tree[a]))
        if not chords:
            continue
        b = rng.choice(chords)
        edges.add((min(a, b), max(a, b)))
    order = ref.bfs_order(ref.adjacency(n, edges), rng.randrange(n))
    label = {v: i for i, v in enumerate(order)}
    return n, sorted(tuple(sorted((label[a], label[b]))) for a, b in edges)


WORKLOAD_CLASSES = {"verify-all": VerifyAll, "corpus-build": CorpusBuild, "family-scale": FamilyScale}


# --- runs ----------------------------------------------------------------------


def timed_run(workload, launcher: Launcher, seconds: int, tally: Tally) -> dict:
    setups = [launcher.run("setup").setup_s for _ in range(SETUP_PROBES)]
    reps, rates = [], []
    start = time.monotonic()
    while True:
        rep = launcher.run(workload.task, jobs=workload.jobs, inputs=workload.inputs)
        graphs = workload.check(rep, tally)
        reps.append(rep)
        rates.append(graphs / rep.wall_s)
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
        print(f"rep {len(reps)}: wall {rep.wall_s:.3f} s  cpu {rep.cpu_s:.3f} s  "
              f"rss {rep.peak_rss_mb:.1f} MB  graphs {graphs}")
        mean = statistics.fmean(r.wall_s for r in reps)
        if time.monotonic() - start + mean > seconds:
            break
    workload.finish(tally)
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in reps), "s"),
        "cpu_s": (med(r.cpu_s for r in reps), "s"),
        "setup_s": (med(s for s in setups if s is not None), "s"),
        "graphs_per_s": (med(rates), "graphs/s"),
        "peak_rss_mb": (med(r.peak_rss_mb for r in reps), "MB"),
    }


def traced_run(workload, launcher: Launcher, tally: Tally) -> dict:
    plain = launcher.run(workload.task, inputs=workload.inputs)
    workload.check(plain, tally)
    traced = launcher.run(workload.task, trace=1, inputs=workload.inputs)
    workload.check(traced, tally)
    pmap_ms = 0.0
    if workload.task == "verify-all":
        # finish() then also requires the traced jobs=1 JSON to equal this one
        pooled = launcher.run(workload.task, jobs=2)
        workload.check(pooled, tally)
        pmap = launcher.run("pmap")
        if tally.op(pmap.ok, "pmap probe"):
            pmap_ms = pmap.result["fixed_cost_ms"]
    workload.finish(tally)
    if not traced.ok:
        return {}
    trace = traced.result["trace"]
    metrics = layer_metrics(trace["names"], workload, pmap_ms)
    metrics["trace.overhead.s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["trace.spans"] = (trace["spans"], "count")
    check_completeness(trace, workload, tally)
    return metrics


def check_counting(seed: int, work: Path, launcher: Launcher, tally: Tally) -> None:
    """One untimed family-scale repetition after verify-all's runs. verify-all
    checks only the suites' verdicts; this checks ``phi``, ``phi_refined``,
    ``mds_profile`` and ``enumerate_mds`` on P_n, C_n, named families and
    random graphs against the reference counter, so a listed workload gates
    the counting core's numbers too."""
    families = FamilyScale(seed, work)
    families.check(launcher.run(families.task, inputs=families.inputs), tally)


def layer_metrics(names: dict, workload, pmap_ms: float) -> dict:
    def row(name):
        return names.get(name, {})

    def get(name, key):
        return row(name).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "busy_s") / calls * 1e6 if calls else 0.0

    def layer_sum(layer, key):
        return sum(r[key] for name, r in names.items() if name.startswith(layer + "."))

    mds_names = ("mds.phi", "mds.phi_refined", "mds.mds_profile", "mds.enumerate_mds")
    sets = sum(get(name, "value") for name in mds_names)
    mds_busy = sum(get(name, "outer_busy_s") for name in mds_names)
    pendant_graphs = workload.pendant_path_graphs()
    pendant_refined = row("mds.phi_refined").get("by_suite", {}).get("pendant-path", 0)
    m = {
        "mds.phi.calls": (get("mds.phi", "calls"), "count"),
        "mds.phi.s": (get("mds.phi", "busy_s"), "s"),
        "mds.phi.us_per_graph": (per_call_us("mds.phi"), "us"),
        "mds.phi_refined.calls": (get("mds.phi_refined", "calls"), "count"),
        "mds.phi_refined.s": (get("mds.phi_refined", "busy_s"), "s"),
        "mds.mds_profile.s": (get("mds.mds_profile", "busy_s"), "s"),
        "mds.enumerate_mds.s": (get("mds.enumerate_mds", "busy_s"), "s"),
        "mds.sets_counted": (sets, "count"),
        "mds.sets_per_s": (sets / mds_busy if mds_busy else 0.0, "1/s"),
        "canon.generate_trees.s": (get("canon.generate_trees", "busy_s"), "s"),
        "canon.generate_unicyclic.s": (get("canon.generate_unicyclic", "busy_s"), "s"),
        "canon.generate_caterpillars.s": (get("canon.generate_caterpillars", "busy_s"), "s"),
        "canon.graphs_generated": (sum(get(f"canon.generate_{k}", "outer_value")
                                       for k in ("trees", "caterpillars", "unicyclic")), "count"),
        "canon.tree_code.us": (per_call_us("canon.tree_code"), "us"),
        "canon.unicyclic_code.us": (per_call_us("canon.unicyclic_code"), "us"),
        "graphs.graph6_encode.us": (per_call_us("graphs.graph6_encode"), "us"),
        "graphs.graph6_decode.us": (per_call_us("graphs.graph6_decode"), "us"),
        "graphs.from_edges.calls": (get("graphs.from_edges", "calls"), "count"),
        "graphs.delete_vertices.calls": (get("graphs.delete_vertices", "calls"), "count"),
        "graphs.delete_vertices.s": (get("graphs.delete_vertices", "busy_s"), "s"),
    }
    for suite in SUITE_REPORTS:
        m[f"suites.{suite}.s"] = (get(f"suites.{suite}", "busy_s"), "s")
    m.update({
        "suites.reports": (layer_sum("suites", "value"), "count"),
        "suites.pmap.fixed_cost_ms": (pmap_ms, "ms"),
        "suites.pendant-path.refined_calls_per_graph": (
            pendant_refined / pendant_graphs if pendant_graphs else 0.0, "calls/graph"),
        "cli.serialize.s": (get("cli.cmd_verify", "self_s"), "s"),
        "cli.CorpusCache.store.s": (get("cli.CorpusCache.store", "busy_s"), "s"),
        "cli.CorpusCache.load.s": (get("cli.CorpusCache.load", "busy_s"), "s"),
        "cli.cache_bytes": (workload.cache_bytes, "bytes"),
        "families.build.s": (layer_sum("families", "outer_busy_s"), "s"),
    })
    for layer in ("mds", "canon", "graphs", "families", "suites", "cli"):
        m[f"{layer}.self.s"] = (layer_sum(layer, "self_s"), "s")
    return m


def check_completeness(trace: dict, workload, tally: Tally) -> None:
    """The traced counts must match what the workload is known to do, so a
    call path that escaped the rebinding shows up as a failure."""
    names = trace["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    def expect(what, got, want):
        tally.op(got == want, f"trace {what}: {got} != {want}")

    if workload.task == "verify-all":
        by_suite = names.get("mds.phi", {}).get("by_suite", {})
        expect("phi calls in main", by_suite.get("main", 0), sum(UNICYCLIC[3:13]))
        expect("phi calls in trees", by_suite.get("trees", 0), sum(TREES[3:13]))
        for suite in SUITE_REPORTS:
            expect(f"run_suite({suite}) calls", get(f"suites.{suite}", "calls"), 1)
        expect("suite reports", sum(get(f"suites.{s}", "value") for s in SUITE_REPORTS), sum(SUITE_REPORTS.values()))
        expect("cmd_verify calls", get("cli.cmd_verify", "calls"), 1)
        tally.op(names.get("mds.phi_refined", {}).get("by_suite", {}).get("pendant-path", 0) > 0,
                 "trace phi_refined calls in pendant-path")
    elif workload.task == "corpus-build":
        expect("trees yielded", get("canon.generate_trees", "outer_value"), sum(TREES[1:15]))
        expect("caterpillars yielded", get("canon.generate_caterpillars", "outer_value"), sum(CATERPILLARS[1:15]))
        expect("unicyclic graphs yielded", get("canon.generate_unicyclic", "outer_value"), sum(UNICYCLIC[3:14]))
        expect("tree_code calls", get("canon.tree_code", "top_calls"), sum(TREES[1:15]) + sum(CATERPILLARS[1:15]))
        expect("unicyclic_code calls", get("canon.unicyclic_code", "top_calls"), sum(UNICYCLIC[3:14]))
        total = sum(TREES[1:15]) + sum(CATERPILLARS[1:15]) + sum(UNICYCLIC[3:14])
        expect("CorpusCache.store calls", get("cli.CorpusCache.store", "calls"), 39)
        expect("CorpusCache.load calls", get("cli.CorpusCache.load", "calls"), 39)
        expect("graph6_encode calls", get("graphs.graph6_encode", "calls"), total)
        expect("graph6_decode calls", get("graphs.graph6_decode", "calls"), total)
    else:
        count = len(workload.graphs)
        expect("phi calls", get("mds.phi", "calls"), (PATHS_TO - 2) + 2 * (CYCLES_TO - 3) + count)
        for name in ("mds.phi_refined", "mds.mds_profile", "mds.enumerate_mds"):
            expect(f"{name} calls", get(name, "calls"), count)
        expect("parse_family calls", get("families.parse_family", "top_calls"), len(FAMILIES))
        expect("from_edges calls from the workload", get("graphs.from_edges", "top_calls"), RANDOM_GRAPHS)


def stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "commit": _git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref_line = head.read_text().strip()
    if not ref_line.startswith("ref: "):
        return ref_line
    name = ref_line[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "dissoc" / "__init__.py").is_file():
        print(f"error: no dissoc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    run_stamp = stamp(args.seed)
    print("stamp " + json.dumps(run_stamp), flush=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    tally = Tally()
    try:
        launcher = Launcher(work, time.monotonic() + DEADLINE_S)
        workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
        if args.trace:
            metrics = traced_run(workload, launcher, tally)
        else:
            metrics = timed_run(workload, launcher, args.seconds, tally)
        if args.workload == "verify-all":
            check_counting(args.seed, work, launcher, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    run_stamp["loadavg_end"] = os.getloadavg()
    print("stamp " + json.dumps(run_stamp))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    correct = tally.failed == 0 and tally.attempted > 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
