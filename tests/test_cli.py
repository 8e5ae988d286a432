import hashlib
import json
import subprocess
import sys

import pytest

from dissoc import cycle, generate_unicyclic, graph6_decode, graph6_encode, suites
from dissoc.cli import CorpusCache, main
from dissoc.suites import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
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


def test_phi_requires_some_graph(capsys):
    code, _, err = run_cli(capsys, "phi")
    assert code == 2


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


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "suite, orders, start",
    [
        ("main", "2", 3),
        ("cycle", "1..3", 4),
        ("subcases", "3..8", 9),
        ("paths", "2", 3),
        ("identities", "1..2", 3),
    ],
)
def test_verify_empty_domain_exit_2(capsys, suite, orders, start):
    for name in (suite, "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", name, "--orders", orders)
        assert code == 2 and out == ""
    code, _, err = run_cli(capsys, "verify", "--suite", suite, "--orders", orders)
    assert repr(suite) in err and f"domain starts at order {start}" in err


def test_verify_all_resolves_every_domain_first(monkeypatch, capsys):
    # subcases' domain is empty in 3..8: no suite may run before that is found
    ran = []
    for name, suite in SUITES.items():
        monkeypatch.setitem(SUITES, name, suite._replace(check=lambda *args, name=name: ran.append(name)))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--orders", "3..8")
    assert code == 2 and out == "" and "'subcases'" in err
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
    cache = CorpusCache(str(tmp_path))
    graphs = list(generate_unicyclic(5))
    cache.store("unicyclic", 5, graphs)
    # a package release alone keeps the cached corpus
    monkeypatch.setattr("dissoc.cli.__version__", "9.9.9")
    assert cache.load("unicyclic", 5) == graphs
    assert "generator=" in (tmp_path / "unicyclic_5_v0.1.0.g6").read_text().splitlines()[0]
    # a new generator version misses it
    monkeypatch.setattr("dissoc.cli.GENERATOR_VERSION", "0.1.0-next")
    assert cache.load("unicyclic", 5) is None


def test_orders_single_value(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "trees", "--orders", "6")
    assert code == 0 and "[PASS] trees n=6" in out


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "phi", "--family", "C(3)"],
        capture_output=True,
        text=True,
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
    )
    assert proc.returncode == 0 and proc.stdout.strip() == str(count)


@pytest.mark.parametrize("suite, orders", [("paths", "3..64"), ("cycle", "4..64")])
def test_verify_families_to_order_64(capsys, suite, orders):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--orders", orders)
    assert code == 0 and out.startswith(f"[PASS] {suite} n={orders} graphs=")
