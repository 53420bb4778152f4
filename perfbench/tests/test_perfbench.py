"""Tests of the benchmark's own code: generator, span wrappers, metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import driver  # noqa: E402
import layers  # noqa: E402
from generate import STOP_WORDS, CollectionShape, generate, word_list  # noqa: E402
from spans import Span, Tracer, self_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY = CollectionShape("TINY", n_docs=60, n_queries=6, n_topics=3, n_words=200,
                       doc_length=30, query_length=8)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_same_seed_same_bytes(tmp_path):
    generate(TINY, 7, tmp_path / "a")
    generate(TINY, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_generator_seed_draws_queries_over_fixed_documents(tmp_path):
    generate(TINY, 7, tmp_path / "a")
    generate(TINY, 8, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a["TINY.QRY"] != b["TINY.QRY"] and a["TINY.REL"] != b["TINY.REL"]
    assert a["TINY.ALL"] == b["TINY.ALL"]


def test_generated_text_mixes_stop_words_only_from_the_stop_list():
    from ldikit.corpus import smart_stoplist

    stop = smart_stoplist()
    assert all(w in stop for w in STOP_WORDS)
    largest = max(w.shape.n_words for w in WORKLOADS.values())
    words = word_list(largest)
    assert len(set(words)) == largest
    assert not any(w in stop for w in words)


def test_relevance_is_the_planted_cluster(tmp_path):
    files = generate(TINY, 3, tmp_path)
    qrels = checks.read_qrels(files["qrels"])
    assert len(qrels) == TINY.n_queries
    clusters = {frozenset(r) for r in qrels.values()}
    # relevant sets are whole clusters: any two are equal or disjoint
    assert all(a == b or not a & b for a in clusters for b in clusters)


def test_wrapper_returns_the_wrapped_value_unchanged():
    sentinel = object()
    calls = []

    def work(x, *, y):
        calls.append((x, y))
        return sentinel

    def boom():
        raise KeyError("inner")

    owner = types.SimpleNamespace(work=work, boom=boom)
    tracer = Tracer()
    tracer.wrap(owner, "work", "m.work", lambda a, kw, r: {"seen": r is sentinel})
    tracer.wrap(owner, "boom", "m.boom")
    assert owner.work(1, y=2) is sentinel
    with pytest.raises(KeyError):
        owner.boom()
    assert calls == [(1, 2)]
    assert [s.name for s in tracer.spans] == ["m.work", "m.boom"]
    assert tracer.spans[0].info == {"seen": True}
    assert all(s.end >= s.start for s in tracer.spans)
    with tracer.paused():
        assert owner.work(3, y=4) is sentinel
    assert len(tracer.spans) == 2
    tracer.uninstall()
    assert owner.work is work and owner.boom is boom


def test_install_wraps_and_uninstall_restores():
    from ldikit import cli, corpus, pipeline

    before = (cli.evaluate_scores, corpus.load_corpus, pipeline.train_lda,
              corpus.Corpus.checksum)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert pipeline.train_lda.__wrapped__ is before[2]
        assert corpus.Corpus.checksum.__wrapped__ is before[3]
    finally:
        tracer.uninstall()
    assert (cli.evaluate_scores, corpus.load_corpus, pipeline.train_lda,
            corpus.Corpus.checksum) == before


def test_self_seconds_subtracts_direct_children():
    spans = [Span(0, "cli.x", 0.0, 10.0, None, 0),
             Span(1, "a.f", 1.0, 4.0, 0, 0),
             Span(2, "a.g", 2.0, 3.0, 1, 0),
             Span(3, "b.h", 5.0, 6.0, 0, 0)]
    assert self_seconds(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_recomputed_ap_matches_ldikit_exactly():
    from ldikit.metrics import average_precision, rank_documents

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        doc_ids = rng.choice(1000, size=n, replace=False) + 1
        scores = rng.integers(0, 5, size=n) / 4.0      # plenty of ties
        relevant = set(rng.choice(doc_ids, size=int(rng.integers(1, n + 1)),
                                  replace=False).tolist())
        ours = checks.average_precision(scores, doc_ids, relevant)
        assert ours == average_precision(rank_documents(scores, doc_ids), relevant)


def test_topic_recovery_of_the_planted_table_is_one(tmp_path):
    files = generate(TINY, 1, tmp_path)
    planted = np.load(files["planted"])
    words = word_list(TINY.n_words)
    assert checks.topic_recovery(planted, words, planted) == pytest.approx(1.0)


def _tiny_run(name, tmp_path):
    workload = replace(WORKLOADS[name], shape=TINY, k=3)
    inputs = generate(TINY, 1, tmp_path / "inputs")
    bench = driver.Bench(workload, inputs, tmp_path / "work")
    untraced = [bench.run_pass()]
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = [bench.run_pass(tracer, 1)]
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_its_contract(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_report_every_named_metric(name, tmp_path, benchmark_json):
    untraced, traced, tracer = _tiny_run(name, tmp_path)
    commands_failed = [f for p in untraced + traced for f in p.failures
                       if "exited" in f]
    assert commands_failed == []
    # the traced pass saw the same answers as the untraced one
    assert "quality repeats across passes" not in traced[0].failures

    e2e = driver.summarize(untraced, [], None, 0)["metrics"]
    per = driver.summarize(untraced, traced, tracer, 1)["metrics"]
    for produced, listed in ((e2e, benchmark_json["end_to_end"]),
                             (per, benchmark_json["per_layer"])):
        assert all(NAME_RE.fullmatch(n) for n in produced)
        assert {n: m["unit"] for n, m in produced.items()} == \
            {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(m["value"], (int, float)) for m in produced.values())
    assert all(e2e[n]["value"] > 0 for n in e2e)
