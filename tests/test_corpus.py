import pytest

from dissoc import cli, corpus
from dissoc.corpus import CorpusCache, CorpusStore


def test_cli_exposes_the_corpus_objects():
    # code that looks the cache and the file format up on dissoc.cli, or
    # rebinds them there, reaches the objects the store uses
    assert cli.CorpusCache is corpus.CorpusCache
    assert cli.format_corpus is corpus.format_corpus


def test_store_writes_each_corpus_once_and_a_second_store_reads_it(tmp_path, monkeypatch):
    stored = []
    store = CorpusCache.store

    def counted_store(self, kind, n, graphs):
        stored.append((kind, n))
        store(self, kind, n, graphs)

    monkeypatch.setattr(CorpusCache, "store", counted_store)
    first = CorpusStore(cache_dir=str(tmp_path))
    unicyclic = first.graphs("unicyclic", 3, 6)
    trees = first.graphs("tree", 3, 5)
    assert first.graphs("unicyclic", 4, 6) == unicyclic[1:]  # order 3 holds one graph
    assert sorted(stored) == [("tree", n) for n in range(3, 6)] + [("unicyclic", n) for n in range(3, 7)]
    assert len(list(tmp_path.iterdir())) == 7

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was called")

    stored.clear()
    monkeypatch.setattr(corpus, "GENERATORS", dict.fromkeys(corpus.GENERATORS, refuse))
    second = CorpusStore(cache_dir=str(tmp_path))
    assert second.graphs("unicyclic", 3, 6) == unicyclic
    assert second.graphs("tree", 3, 5) == trees
    assert stored == []
    with pytest.raises(AssertionError, match="generator"):
        CorpusStore().graphs("tree", 3, 3)


def test_store_refuses_a_range_past_its_cap_before_making_any_order():
    store = CorpusStore(unicyclic_cap=13)
    with pytest.raises(ValueError, match="above its cap 13"):
        store.graphs("unicyclic", 3, 14)
    assert store.corpora == {}
