import ast
import hashlib
import importlib
import importlib.util
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dissoc import __version__, cycle, from_edges, generate_trees, generate_unicyclic, graph6_decode, graph6_encode, path, suites
from dissoc.cli import CorpusCache, main
from dissoc.suites import SUITES

# child interpreters import the package from this checkout's src, as the
# test process does
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    # a usage error exits from the parser; every other outcome is returned
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_family(capsys):
    code, out, _ = run_cli(capsys, "phi", "--family", "U(2,2)")
    assert code == 0 and out.strip() == "5"


def test_phi_graph6(capsys):
    g6 = graph6_encode(cycle(3)).decode("ascii")
    code, out, _ = run_cli(capsys, "phi", "--graph6", g6)
    assert code == 0 and out.strip() == "3"


def test_phi_constraint(capsys):
    # the support vertex of the 3-vertex spider never sits isolated inside a set
    code, out, _ = run_cli(capsys, "phi", "--family", "T(2,0)", "--constraint", "0=in0")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "phi", "--family", "T(1,1)", "--constraint", "1=in0")
    assert code == 0 and out.strip() == "0"


def test_phi_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "phi", "--family", "T(oops)")
    assert code == 2 and "error" in err


def test_phi_names_a_bad_constraint_vertex(capsys):
    code, _, err = run_cli(capsys, "phi", "--family", "P(4)", "--constraint", "x=in0")
    assert code == 2 and "vertex 'x'" in err and "status" not in err


def test_phi_requires_some_graph(capsys):
    code, _, err = run_cli(capsys, "phi")
    assert code == 2


@pytest.mark.parametrize("command", ["phi", "mds"])
@pytest.mark.parametrize("graph_args", [[], ["--family", "P(3)", "--graph6", "D~{"]], ids=["neither", "both"])
def test_graph_commands_take_exactly_one_graph(capsys, command, graph_args):
    with pytest.raises(SystemExit) as exc:
        main([command, *graph_args])
    assert exc.value.code == 2 and "--family" in capsys.readouterr().err


def test_mds_p4(capsys):
    code, out, _ = run_cli(capsys, "mds", "--family", "P(4)")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines == ["{1,2}", "{0,1,3}", "{0,2,3}", "count 3"]


def test_mds_k1(capsys):
    code, out, _ = run_cli(capsys, "mds", "--family", "T(0,0)")
    assert code == 0 and out.strip().splitlines() == ["{0}", "count 1"]


def test_mds_c6_count(capsys):
    code, out, _ = run_cli(capsys, "mds", "--family", "C(6)")
    assert out.strip().splitlines()[-1] == "count 5"


def test_gen_file(tmp_path, capsys):
    target = tmp_path / "uni5.g6"
    code, _, err = run_cli(capsys, "gen", "--class", "unicyclic", "--order", "5", "--output", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0].startswith("# class=unicyclic order=5 count=5")
    assert len(lines) == 6
    assert "count 5" in err


def test_gen_tree7_count(tmp_path, capsys):
    target = tmp_path / "t7.g6"
    code, _, err = run_cli(capsys, "gen", "--class", "tree", "--order", "7", "--output", str(target))
    assert code == 0
    assert len(target.read_text().splitlines()) == 12  # header + 11 graphs


def test_gen_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "gen", "--class", "unicyclic", "--order", "20")
    assert code == 2
    # caterpillars take the tree cap
    code, _, err = run_cli(capsys, "gen", "--class", "caterpillar", "--order", "6", "--tree-cap", "5")
    assert code == 2 and "cap 5" in err
    code, _, err = run_cli(capsys, "gen", "--class", "caterpillar", "--order", "6", "--unicyclic-cap", "5")
    assert code == 0 and "count 6" in err


def test_verify_exit_codes_and_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "main", "--orders", "3..7")
    assert code == 0
    assert out.count("[PASS]") == 5


def test_verify_json_deterministic_across_jobs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "main", "--orders", "3..8", "--jobs", "1",
        "--format", "json", "--output", str(a),
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "main", "--orders", "3..8", "--jobs", "2",
        "--format", "json", "--output", str(b),
    )
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    reports = json.loads(a.read_text())
    for rep in reports:
        n = int(rep["order"])
        assert rep["min_phi"] == n // 2 + 2


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cycle", "--orders", "4..12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,n,graphs,min_phi,bound,pass"
    assert lines[1].startswith("cycle,4..12")
    assert lines[1].endswith("True")


def test_verify_corpus_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "main", "--orders", "5..6",
        "--cache-dir", str(cache),
    )
    assert code == 0
    entries = sorted(p.name for p in cache.iterdir())
    assert "unicyclic_5_v0.1.0.g6" in entries
    # second run reuses the cache and still passes
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "main", "--orders", "5..6",
        "--cache-dir", str(cache),
    )
    assert code == 0 and out.count("[PASS]") == 2


def test_bad_jobs_env_fails_verify_only(capsys, monkeypatch):
    monkeypatch.setenv("DISSOC_JOBS", "x")
    code, out, _ = run_cli(capsys, "phi", "--family", "P(3)")
    assert code == 0 and out.strip() == "3"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "paths"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, orders, graphs",
    [("paths", "10..12", 3), ("caterpillars", "6..7", 16), ("surgery", "5..6", 18)],
)
def test_verify_range_suites_start_at_the_given_order(capsys, suite, orders, graphs):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--orders", orders)
    assert code == 0 and out.startswith(f"[PASS] {suite} n={orders} graphs={graphs} ")


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "suite, orders, start",
    [
        ("main", "2", 3),
        ("trees", "2", 3),
        ("paths", "2", 3),
        ("caterpillars", "2", 3),
        ("cycle", "1..3", 4),
        ("leaf-removal", "4", 5),
        ("surgery", "2", 3),
        ("pendant-path", "4", 5),
        ("subcases", "3..8", 9),
        ("identities", "1..2", 3),
    ],
)
def test_verify_empty_domain_exit_2(capsys, suite, orders, start):
    for name in (suite, "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", name, "--orders", orders)
        assert code == 2 and out == ""
    code, _, err = run_cli(capsys, "verify", "--suite", suite, "--orders", orders)
    assert repr(suite) in err and f"domain starts at order {start}" in err


@pytest.mark.parametrize("orders", ["", "x", "3..", "3..x"])
def test_verify_rejects_malformed_orders(capsys, orders):
    code, out, err = run_cli(capsys, "verify", "--suite", "cycle", "--orders", orders)
    assert code == 2 and out == "" and "7 or 3..12" in err


def test_verify_all_resolves_every_domain_first(monkeypatch, capsys):
    # subcases' domain is empty in 3..8: no suite may run before that is found
    ran = []
    for name, suite in SUITES.items():
        monkeypatch.setitem(SUITES, name, suite._replace(check=lambda *args, name=name: ran.append(name)))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--orders", "3..8")
    assert code == 2 and out == "" and "'subcases'" in err
    assert ran == []


@pytest.mark.parametrize(
    "suite, orders, message",
    [
        ("leaf-removal", "5..40", f"'leaf-removal' runs orders up to {suites.LEAF_REMOVAL_ORDER_CAP}, got 40"),
        # main would run 11..13 before its corpus of order 14 met the cap
        ("all", "11..14", "unicyclic corpus of order 14 is above its cap 13"),
        # a graph past order 64 cannot be built: the named families stop there
        ("paths", "3..65", "'paths' runs orders up to 64, got 65"),
        ("cycle", "4..65", "'cycle' runs orders up to 64, got 65"),
        ("subcases", "9..65", "'subcases' runs orders up to 64, got 65"),
    ],
    ids=["leaf-removal", "all", "paths", "cycle", "subcases"],
)
def test_verify_refuses_a_cap_before_any_suite_runs(monkeypatch, capsys, suite, orders, message):
    ran = []
    for name, entry in SUITES.items():
        monkeypatch.setitem(SUITES, name, entry._replace(check=lambda *args, name=name: ran.append(name)))
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--orders", orders)
    assert code == 2 and out == "" and message in err
    assert ran == []


def test_verify_caps_are_honoured(tmp_path, capsys):
    commands = [
        ("--suite", "main", "--orders", "4", "--unicyclic-cap", "3"),
        ("--suite", "trees", "--orders", "5", "--tree-cap", "4"),
        ("--suite", "pendant-path", "--orders", "8", "--unicyclic-cap", "5"),
        ("--suite", "surgery", "--orders", "8", "--unicyclic-cap", "5"),
        ("--suite", "caterpillars", "--orders", "9", "--tree-cap", "5"),
    ]
    cache = str(tmp_path / "cache")
    for argv in commands:
        assert run_cli(capsys, "verify", *argv)[0] == 2
        assert run_cli(capsys, "verify", *argv, "--cache-dir", cache)[0] == 2
        # a cached corpus above the cap is refused too
        assert run_cli(capsys, "verify", *argv[:4], "--cache-dir", cache)[0] == 0
        assert run_cli(capsys, "verify", *argv, "--cache-dir", cache)[0] == 2


# ``verify --suite all --format json`` at default orders: the reports must
# stay byte-identical across worker counts, cache use and refactors
VERIFY_ALL_DIGEST = "7fbf6fdedf1742580c495cc539d090cc13497e5e420fee851f61df192cefe883"
# the same run as CSV, which has no timings and reads min_phi and bound
VERIFY_ALL_CSV_DIGEST = "5d0e58f2f3cc3ce53eec786be3ed5b7405d9eee4e68711ec46f3a3f9cb0f7fdf"


# JSON reports of the suites that read refined counts from one profile or
# one targeted pass per graph, as produced when they ran one search per
# refined count, at one and two workers; and of every suite at one worker
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("pendant-path", "--orders", "5..10"), "9cce3ef3a7d79bee21b6d46fcb03b705f595783a9c20bbdbaa39a296bbe01a02"),
        (("surgery",), "998fbf59e880018f043c6c17995151617c95e7d1c612ee3a9ad9a9b61dd7c4eb"),
        (("identities",), "5afdc51c7e9cc218310bc7c66ea07d61908a8f49446e96ebda22b548cf4053d5"),
        (("pendant-path", "--orders", "5..10", "--jobs", "2"), "9cce3ef3a7d79bee21b6d46fcb03b705f595783a9c20bbdbaa39a296bbe01a02"),
        (("surgery", "--jobs", "2"), "998fbf59e880018f043c6c17995151617c95e7d1c612ee3a9ad9a9b61dd7c4eb"),
        (("all",), VERIFY_ALL_DIGEST),
    ],
)
def test_verify_json_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "verify", "--suite", *argv, "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_csv_digest(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "csv")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_CSV_DIGEST


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
@pytest.mark.parametrize("via_env", [False, True])
def test_jobs_are_bounded_by_the_cpu_count(capsys, monkeypatch, cpus, workers, via_env):
    # a pool forks all its workers at the first submit, so it is never asked
    # for more than one per CPU; the recorder stands in for it and starts no
    # process
    built, chunks = [], []

    class Recorder:
        def __init__(self, max_workers):
            built.append(max_workers)

        def map(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(suites, "ProcessPoolExecutor", Recorder)
    # order 8 has 89 unicyclic graphs: chunks of 89 // (2 * workers)
    argv = ["verify", "--suite", "main", "--orders", "8"]
    if via_env:
        monkeypatch.setenv("DISSOC_JOBS", "100000")
    else:
        argv += ["--jobs", "100000"]
    suites._pool.cache_clear()
    try:
        code, _, _ = run_cli(capsys, *argv)
    finally:
        suites._pool.cache_clear()
    assert code == 0 and built == [workers] and chunks == [89 // (2 * workers)]


def test_verify_all_shares_one_store_and_one_pool(tmp_path, capsys, monkeypatch):
    # every (class, order) file of a warm cache is read once, and both runs
    # fan out through one pool, with the reports unchanged
    loads, pools = [], []
    load = CorpusCache.load
    monkeypatch.setattr(CorpusCache, "load", lambda self, kind, n: loads.append((kind, n)) or load(self, kind, n))

    class CountedPool(suites.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", CountedPool)
    suites._pool.cache_clear()
    argv = ("verify", "--suite", "all", "--jobs", "2", "--cache-dir", str(tmp_path), "--format", "json")
    try:
        for _ in ("cold", "warm"):
            loads.clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST
            assert len(pools) == 1
    finally:
        suites._pool.cache_clear()
        for pool in pools:
            pool.shutdown()
    assert sorted(loads) == sorted(set(loads)) and len(loads) == 20


@pytest.fixture
def queue_recorder(monkeypatch):
    # a stand-in for the pool that starts no process: its ``map`` records
    # that it queued fn, its lazy results record when they are first read,
    # and its ``shutdown`` records whether the queued work was cancelled
    events = []

    class Recorder:
        def __init__(self, max_workers):
            pass

        def map(self, fn, items, chunksize=1):
            events.append(("queued", fn))

            def results():
                events.append(("read", fn))
                yield from map(fn, items)

            return results()

        def shutdown(self, wait=True, *, cancel_futures=False):
            events.append(("shutdown", cancel_futures))

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(suites, "ProcessPoolExecutor", Recorder)
    suites._pool.cache_clear()
    yield events
    suites._pool.cache_clear()


def test_verify_all_queues_every_map_before_reading_any(capsys, queue_recorder):
    # no pooled map waits on another suite's report or on the next corpus:
    # all are queued before the first result is read, and the reports are
    # those of a run without a pool
    argv = ("verify", "--suite", "all", "--orders", "9", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--jobs", "2")
    kinds = [kind for kind, _ in queue_recorder]
    # one map per report of main, trees, caterpillars, leaf-removal, surgery,
    # pendant-path, subcases and identities; paths and cycle map one graph
    # each, too few for the pool
    assert kinds == ["queued"] * 8 + ["read"] * 8
    assert code == 0 and (code, out) == run_cli(capsys, *argv)[:2]


def test_verify_error_while_starting_cancels_the_queued_maps(tmp_path, capsys, queue_recorder):
    # trees reads a truncated cache file of order 12 while main's maps are
    # queued: the run exits 2 at once, naming the file, and cancels those
    # maps rather than running them, or the interpreter would wait for them
    # at exit
    cache = tmp_path / "cache"
    assert run_cli(capsys, "verify", "--suite", "trees", "--orders", "12", "--cache-dir", str(cache))[0] == 0
    assert queue_recorder == []  # jobs 1 takes no pool
    (entry,) = cache.glob("tree_12_*.g6")
    entry.write_text("\n".join(entry.read_text().splitlines()[:3]) + "\n")  # header plus 2 graphs
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--jobs", "2", "--cache-dir", str(cache))
    assert code == 2 and out == "" and str(entry) in err
    assert ("queued", suites.phi) in queue_recorder
    assert "read" not in [kind for kind, _ in queue_recorder]
    assert queue_recorder[-1] == ("shutdown", True)
    assert suites._pool.cache_info().currsize == 0


def test_verify_swapped_cache_graph_exit_2(tmp_path, capsys):
    # one character of the minimizer's line changed so that it still
    # decodes: the header's count holds, only the checksum can tell
    cache = tmp_path / "cache"
    argv = ("verify", "--suite", "main", "--orders", "9", "--cache-dir", str(cache), "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (minimizer, _), = json.loads(out)[0]["minimizers"]
    (entry,) = cache.glob("unicyclic_9_*.g6")
    lines = entry.read_text().splitlines()
    i = lines.index(minimizer)
    lines[i] = minimizer[0] + chr((ord(minimizer[1]) - 63 ^ 1) + 63) + minimizer[2:]
    graph6_decode(lines[i])
    entry.write_text("".join(line + "\n" for line in lines))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "corrupt corpus cache file" in err and str(entry) in err


def test_verify_truncated_cache_exit_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("verify", "--suite", "main", "--orders", "9", "--cache-dir", str(cache))
    assert run_cli(capsys, *argv)[0] == 0
    (entry,) = cache.glob("unicyclic_9_*.g6")
    lines = entry.read_text().splitlines()
    entry.write_text("\n".join(lines[:3]) + "\n")  # header plus 2 graphs
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and str(entry) in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[1:],  # no header
        lambda lines: ["#"] + lines[1:],
        lambda lines: [lines[0].replace("order=6", "order=7")] + lines[1:],
        lambda lines: [lines[0].replace("class=unicyclic", "class=tree")] + lines[1:],
        lambda lines: lines + lines[1:2],  # one graph more than the count
        lambda lines: lines[:-1] + [lines[-1][:-1]],  # last line cut short
        lambda lines: [],
        lambda lines: lines[:1] + [lines[1 + 3]] + lines[2:],  # a graph swapped for another
        lambda lines: [lines[0].rpartition(" crc32=")[0]] + lines[1:],  # written before the checksum
    ],
)
def test_cache_load_rejects_malformed_file(tmp_path, edit):
    cache = CorpusCache(str(tmp_path))
    cache.store("unicyclic", 6, list(generate_unicyclic(6)))
    path = tmp_path / "unicyclic_6_v0.1.0.g6"
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    with pytest.raises(ValueError, match=str(path)):
        cache.load("unicyclic", 6)


def test_cache_store_over_stale_lock(tmp_path):
    cache = CorpusCache(str(tmp_path))
    graphs = list(generate_unicyclic(6))
    (tmp_path / "unicyclic_6_v0.1.0.g6.lock").touch()  # left by a crashed writer
    cache.store("unicyclic", 6, graphs)
    assert cache.load("unicyclic", 6) == graphs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["unicyclic_6_v0.1.0.g6", "unicyclic_6_v0.1.0.g6.lock"]


def test_cache_is_keyed_on_the_generator_version(tmp_path, monkeypatch):
    # the file name and header carry the generator version and nothing of
    # the package version, so a package release alone keeps cached corpora
    cache = CorpusCache(str(tmp_path))
    graphs = list(generate_unicyclic(5))
    monkeypatch.setattr("dissoc.corpus.GENERATOR_VERSION", "gen-7")
    cache.store("unicyclic", 5, graphs)
    assert [p.name for p in tmp_path.iterdir()] == ["unicyclic_5_vgen-7.g6"]
    header = (tmp_path / "unicyclic_5_vgen-7.g6").read_text().splitlines()[0]
    assert " generator=gen-7 " in header and __version__ not in header
    assert cache.load("unicyclic", 5) == graphs
    # a new generator version misses it
    monkeypatch.setattr("dissoc.corpus.GENERATOR_VERSION", "gen-8")
    assert cache.load("unicyclic", 5) is None


def test_orders_single_value(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "trees", "--orders", "6")
    assert code == 0 and "[PASS] trees n=6" in out


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "phi", "--family", "C(3)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


@pytest.mark.parametrize("family, count", [("P(64)", 1916507251), ("C(64)", 2384319102)])
def test_phi_order_64_families_subprocess(family, count):
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "phi", "--family", family],
        capture_output=True,
        text=True,
        timeout=30,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == str(count)


def test_phi_of_a_path_with_two_chords_returns_subprocess():
    # two cycles in one component: the frontier sweep counts it in
    # milliseconds, where the backtracking search would run for hours
    g = from_edges(64, path(64).edges() + [(0, 21), (63, 42)])
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "phi", "--graph6", graph6_encode(g).decode("ascii")],
        capture_output=True,
        text=True,
        timeout=10,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "2119629337"


def _phi_of(g, timeout):
    return subprocess.run(
        [sys.executable, "-m", "dissoc", "phi", "--graph6", graph6_encode(g).decode("ascii")],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=CHILD_ENV,
    )


def test_phi_of_the_order_64_ladder_subprocess():
    # P_2 x P_32 has k = 31 but a frontier of width 2
    rails = [(i, i + 1) for i in range(31)] + [(32 + i, 33 + i) for i in range(31)]
    proc = _phi_of(from_edges(64, rails + [(i, 32 + i) for i in range(32)]), 10)
    assert proc.returncode == 0 and proc.stdout.strip() == "9212326697"


def test_phi_refuses_a_dense_graph_subprocess():
    # G(64, 1/2) and G(64, 0.7) pass through more live states than a sweep
    # may: each exits 2, naming its width, where it would otherwise run for
    # minutes, or for seconds with every single table small
    for p, seed in ((0.5, 83), (0.7, 1)):
        rng = random.Random(seed)
        g = from_edges(64, [(i, j) for i in range(64) for j in range(i + 1, 64) if rng.random() < p])
        start = time.perf_counter()
        proc = _phi_of(g, 30)
        assert proc.returncode == 2 and "frontier width" in proc.stderr and "live states" in proc.stderr, p
        assert time.perf_counter() - start < 2, p


def test_mds_refuses_a_long_listing_subprocess():
    # P_64 has 1,916,507,251 sets: mds counts them first and exits 2 in
    # place of listing them for hours
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "mds", "--family", "P(64)"],
        capture_output=True,
        text=True,
        timeout=30,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2 and proc.stdout == "" and "1916507251" in proc.stderr
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "spec", ["P(10**9)", "C(10**9)", "T(10**9,0)", "U(10**9,0)", "Urt(10**9,1)", "Urt(10**9,10**9)"]
)
def test_phi_refuses_a_huge_family_before_building_it_subprocess(spec):
    # the order is refused before any edge or pattern position is built; the
    # child's address space is capped, so building one fails fast, not by
    # filling the machine's memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "phi", "--family", spec.replace("10**9", str(10**9))],
        capture_output=True,
        text=True,
        timeout=30,
        env=CHILD_ENV,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 2 and "order must be in [1, 64]" in proc.stderr, proc.stderr[-300:]
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "args",
    [
        "--class tree --order 65 --tree-cap 100",
        "--class unicyclic --order 65 --unicyclic-cap 65",
        "--class caterpillar --order 70 --tree-cap 70",
    ],
)
def test_gen_refuses_an_order_above_64_whatever_the_cap_subprocess(args):
    # the generator refuses the order before it builds any smaller order's
    # table; the child's address space is capped, so a run that starts
    # building fails by memory or by the timeout, not by filling the machine
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "gen", *args.split()],
        capture_output=True,
        text=True,
        timeout=10,
        env=CHILD_ENV,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 2 and "order must be in [1, 64]" in proc.stderr, proc.stderr[-300:]
    assert time.perf_counter() - start < 2


def test_leaf_removal_refuses_a_large_order_subprocess():
    # order 40 has about 1.7e8 pendant patterns to walk: verify exits 2,
    # naming the cap, in place of running for about an hour
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "verify", "--suite", "leaf-removal", "--orders", "40"],
        capture_output=True,
        text=True,
        timeout=30,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2 and f"orders up to {suites.LEAF_REMOVAL_ORDER_CAP}" in proc.stderr
    assert time.perf_counter() - start < 2


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", Path(SRC).parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve_in_the_package():
    # the benchmark's traced run rebinds these names by module and
    # attribute: a public name that moves fails here, not only in its gate
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for module, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, attr, _ in tracing.METHODS:
        assert callable(getattr(getattr(importlib.import_module(module), cls), attr)), (module, cls, attr)


def test_package_exports_no_name_that_only_tests_use():
    # every name dissoc/__init__.py exports is used by another package
    # module outside its own def or class, or by the benchmark through a
    # dissoc import, a dissoc attribute or a traced entry; a name only
    # tests call belongs in tests/oracles.py
    package = Path(SRC) / "dissoc"
    init = ast.parse((package / "__init__.py").read_text())
    exports = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name != own:
                    used.add(name)
    for path in (Path(SRC).parent / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dissoc":
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id == "dissoc":
                    used.add(node.attr)
    tracing = _load_tracing()
    used.update(attr for _, attr, *_ in tracing.FUNCTIONS)
    used.update(cls for _, cls, *_ in tracing.METHODS)
    assert sorted(exports - used) == []


TRACED_VERIFY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import dissoc.cli
tracer = tracing.Tracer()
tracer.install()
argv = ["verify", "--suite", "all", "--orders", "9..9", "--jobs", "1", "--output", sys.argv[2]]
print(json.dumps({"code": dissoc.cli.main(argv), "names": tracer.summary()["names"]}))
"""


def test_traced_run_books_each_count_to_its_suite_subprocess(tmp_path):
    # the benchmark's traced gate, at one order: one run_suite span per
    # suite, and every count of main and trees made inside its own suite's
    # span, once per corpus graph, although every suite is started before
    # the first one finishes
    tracing = Path(SRC).parent / "perfbench" / "tracing.py"
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(tracing), str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    names = result["names"]
    assert result["code"] == 0
    assert {name: names[f"suites.{name}"]["calls"] for name in SUITES} == dict.fromkeys(SUITES, 1)
    phi_by_suite = names["mds.phi"]["by_suite"]
    assert phi_by_suite.get("main") == len(list(generate_unicyclic(9))) == 240
    assert phi_by_suite.get("trees") == len(list(generate_trees(9))) == 47
    assert sum(phi_by_suite.values()) == names["mds.phi"]["calls"]
    assert names["mds.phi_refined"]["by_suite"].get("pendant-path", 0) > 0


@pytest.mark.parametrize("suite, orders", [("paths", "3..64"), ("cycle", "4..64")])
def test_verify_families_to_order_64(capsys, suite, orders):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--orders", orders)
    assert code == 0 and out.startswith(f"[PASS] {suite} n={orders} graphs=")
