from __future__ import annotations

from collections import Counter

from nmgraph import oracles, verify
from nmgraph.random_graphs import corpus
from helpers import random_corpus


def test_census_built_at_most_once_per_graph(monkeypatch):
    calls: Counter[int] = Counter()
    census = oracles.subgraph_census

    def counted(g, *args, **kwargs):
        calls[id(g)] += 1
        return census(g, *args, **kwargs)

    monkeypatch.setattr(oracles, "subgraph_census", counted)
    graphs = corpus(20, 16, 7) + random_corpus(10, 24, seed=3)
    results = verify.run_suite(graphs)
    assert all(r.passed for r in results)
    assert max(calls.values()) == 1
    assert set(calls) == {id(g) for g in graphs if g.n <= verify.CENSUS_LIMIT}
