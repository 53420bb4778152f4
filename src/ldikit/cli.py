"""Command-line interface.

Exit codes: 0 success, 1 usage problems, 2 unreadable or malformed data,
3 numerical failure during fitting or scoring.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bundle, config, corpus as corpus_mod, pipeline
from .ensemble import (cross_validate, train_ensemble, validate_alignment,
                       ScoreMatrix)
# Not called here; kept importable for callers that reach it through this
# module.
from .ensemble import combined_scores  # noqa: F401
from .ldi import word_topic_matrix
from .metrics import evaluate_scores, weighted_sum
from .vsm import cosine_scores


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count_from(least: int):
    """Argument type: an integer no smaller than ``least``."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return count


def _counts_from(least: int):
    """Argument type: comma-separated integers, each no smaller than
    ``least``."""
    count = _count_from(least)

    def counts(text: str) -> list[int]:
        values = [count(v) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    return counts


def _score_path(text: str) -> str:
    """Argument type: a score file, which is a ``.bin`` bundle."""
    if Path(text).suffix == ".csv":
        raise argparse.ArgumentTypeError(
            f"{text!r}: score files are .bin bundles, not .csv text")
    return text


@functools.cache
def _build_parser() -> _Parser:
    """The process's one parser, built on first use (``__wrapped__`` builds
    a fresh one).  ``parse_args`` keeps no state between calls: each
    returns a fresh namespace, and list options (``--spec``, ``--ks``) get
    new lists every call."""
    parser = _Parser(prog="ldikit",
                     description="Topic-space indexing and rank fusion over "
                                 "classic retrieval test collections.")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus_p = sub.add_parser("corpus", parents=[], help="corpus operations")
    corpus_sub = corpus_p.add_subparsers(dest="subcommand", required=True)
    build = corpus_sub.add_parser("build", help="parse collections into a "
                                                "corpus bundle")
    build.add_argument("--spec", action="append", required=True,
                       metavar="NAME=DOCS,QUERIES,QRELS",
                       help="collection to ingest; repeat to merge several")
    build.add_argument("--dialect", default="auto",
                       choices=["auto", "pair", "trec"],
                       help="judgment file layout")
    build.add_argument("--name", default=None, help="corpus name override")
    build.add_argument("--stoplist", default=None,
                       help="path to a custom stop term list")
    build.add_argument("--no-stoplist", action="store_true",
                       help="index every term")
    build.add_argument("--out", required=True, help="corpus bundle file")

    train = sub.add_parser("train", help="fit a ranker on a corpus bundle")
    train.add_argument("--corpus", required=True)
    train.add_argument("--method", required=True,
                       help="tfidf, lsi, plsi, lda (alias: ldi)")
    train.add_argument("--k", type=_count_from(1), default=None,
                       help="topic count")
    train.add_argument("--seed", type=_count_from(0), default=0)
    train.add_argument("--out", required=True, help="model bundle file")

    score = sub.add_parser("score", help="score all corpus queries")
    score.add_argument("--corpus", required=True)
    score.add_argument("--model", required=True)
    score.add_argument("--tag", default=None)
    score.add_argument("--out", type=_score_path, required=True,
                       help="score file (.bin)")

    evalp = sub.add_parser("eval", help="evaluate a score file")
    evalp.add_argument("--corpus", required=True)
    evalp.add_argument("--scores", type=_score_path, required=True)
    evalp.add_argument("--out", default=None, help="write the report as JSON")

    ens = sub.add_parser("ensemble", help="rank fusion")
    ens_sub = ens.add_subparsers(dest="subcommand", required=True)
    etrain = ens_sub.add_parser("train", help="learn fusion weights")
    etrain.add_argument("--corpus", required=True)
    etrain.add_argument("--scores", nargs="+", required=True, type=_score_path)
    etrain.add_argument("--eps", type=float, default=1e-4)
    etrain.add_argument("--max-rounds", type=_count_from(1), default=200)
    etrain.add_argument("--out", required=True, help="weights JSON file")
    eapply = ens_sub.add_parser("apply", help="combine score files")
    eapply.add_argument("--scores", nargs="+", required=True, type=_score_path)
    eapply.add_argument("--weights", default=None,
                        help="weights JSON from 'ensemble train'")
    eapply.add_argument("--uniform", action="store_true",
                        help="equal weights instead of a weights file")
    eapply.add_argument("--tag", default="ensemble")
    eapply.add_argument("--out", type=_score_path, required=True)
    ecross = ens_sub.add_parser("crossval", help="two-fold cross-validation")
    ecross.add_argument("--corpus", required=True)
    ecross.add_argument("--scores", nargs="+", required=True, type=_score_path)
    ecross.add_argument("--folds", type=_count_from(2), default=2)
    ecross.add_argument("--seed", type=_count_from(0), default=0)
    ecross.add_argument("--eps", type=float, default=1e-4)
    ecross.add_argument("--max-rounds", type=_count_from(1), default=200)
    ecross.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="MAP across topic counts and seeds")
    sweep.add_argument("--corpus", required=True)
    sweep.add_argument("--method", required=True)
    sweep.add_argument("--ks", type=_counts_from(1), required=True,
                       help="comma-separated topic counts")
    sweep.add_argument("--seeds", type=_counts_from(0), default="0",
                       help="comma-separated seeds")
    sweep.add_argument("--out", default=None)

    ldi = sub.add_parser("ldi", help="topic-space inspection")
    ldi_sub = ldi.add_subparsers(dest="subcommand", required=True)
    inspect = ldi_sub.add_parser("inspect", help="show term topic vectors")
    inspect.add_argument("--corpus", required=True)
    inspect.add_argument("--model", required=True)
    inspect.add_argument("--term", action="append", required=True)
    inspect.add_argument("--top", type=_count_from(0), default=5,
                         help="closest terms to list")
    return parser


def _write_json(path, doc) -> Path:
    """Write ``doc`` as indented JSON to ``path`` (under ``LDIKIT_OUT_DIR``
    when relative), creating parent directories and replacing the file
    whole."""
    out = config.resolve_out_path(path)
    with bundle.replacing(out) as fh:
        fh.write(json.dumps(doc, indent=1).encode())
    return out


def _load_stoplist(args):
    if args.no_stoplist:
        return None
    if args.stoplist:
        return corpus_mod.load_stoplist(args.stoplist)
    return corpus_mod.smart_stoplist()


def _cmd_corpus_build(args) -> int:
    collections = []
    for spec in args.spec:
        if "=" in spec:
            name, _, paths = spec.partition("=")
        else:
            name, paths = None, spec
        parts = [p.strip() for p in paths.split(",")]
        if len(parts) != 3:
            raise UsageError(f"--spec needs NAME=DOCS,QUERIES,QRELS, got {spec!r}")
        collections.append(corpus_mod.load_collection(
            parts[0], parts[1], parts[2], name=name,
            qrels_dialect=args.dialect))
    if len(collections) == 1:
        collection = collections[0]
        if args.name:
            collection.name = args.name
    else:
        collection = corpus_mod.merge_collections(
            collections, name=args.name or "merged")
    built = corpus_mod.build_corpus(collection, _load_stoplist(args))
    out = corpus_mod.save_corpus(built, config.resolve_out_path(args.out))
    print(f"corpus {built.name!r}: {built.n_docs} documents, "
          f"{built.n_queries} queries, {built.n_terms} terms -> {out}")
    return 0


def _cmd_train(args) -> int:
    built = corpus_mod.load_corpus(args.corpus)
    k = args.k
    if k is None:
        k = config.default_topic_count(args.method, built.name)
    fitted = pipeline.train_model(built, args.method, k=k, seed=args.seed)
    out = pipeline.save_fitted(fitted, config.resolve_out_path(args.out))
    detail = f", k={fitted.k}" if fitted.k else ""
    print(f"trained {fitted.kind}{detail} on {built.name!r} -> {out}")
    return 0


def _cmd_score(args) -> int:
    fitted = pipeline.load_fitted(args.model)
    header, arrays = corpus_mod.load_corpus_arrays(
        args.corpus, pipeline.score_reads(fitted.kind))
    matrix = pipeline.score_arrays(fitted, header["checksum"], arrays,
                                   tag=args.tag)
    out = bundle.save_scores(config.resolve_out_path(args.out), matrix)
    print(f"scored {matrix.scores.shape[0]} queries x "
          f"{matrix.scores.shape[1]} documents -> {out}")
    return 0


def _judged_pairs(path):
    """The judged pairs of a corpus bundle, read and verified alone."""
    return corpus_mod.load_corpus_arrays(path, ("qrels",))[1]["qrels"]


def _cmd_eval(args) -> int:
    qrels = _judged_pairs(args.corpus)
    matrix = bundle.load_scores(args.scores)
    report = evaluate_scores(matrix.scores, matrix.query_ids, matrix.doc_ids,
                             qrels)
    print(f"MAP {report.map_score:.4f} over {len(report.per_query_ap)} "
          f"judged queries ({len(report.skipped_queries)} skipped)")
    print("interpolated precision: "
          + " ".join(f"{v:.4f}" for v in report.curve))
    if args.out:
        _write_json(args.out, report.to_dict())
    return 0


def _distinct(tags: list, where: str) -> list:
    """``tags``, refused if one repeats: fusion weights are keyed by tag."""
    repeated = [tag for tag in dict.fromkeys(tags) if tags.count(tag) > 1]
    if repeated:
        raise ValueError(f"{where}: tags {repeated} repeat")
    return tags


def _load_score_files(paths) -> list[ScoreMatrix]:
    matrices = [bundle.load_scores(p) for p in paths]
    _distinct([m.tag for m in matrices], "score files")
    return matrices


def _cmd_ensemble_train(args) -> int:
    qrels = _judged_pairs(args.corpus)
    matrices = _load_score_files(args.scores)
    weights = train_ensemble(matrices, qrels, eps=args.eps,
                             max_rounds=args.max_rounds)
    doc = {
        "tags": weights.tags,
        "alpha": weights.alpha.tolist(),
        "normalized": weights.normalized().tolist(),
        "train_map": weights.train_map,
        "converged": weights.converged,
        "best_round": weights.best_round + 1,
        "rounds": [
            {"round": r.number, "picked": r.tag, "delta": r.delta,
             "map": r.ensemble_map, "map_change": r.map_change,
             "pool_reset": r.pool_reset}
            for r in weights.rounds
        ],
    }
    out = _write_json(args.out, doc)
    print(f"fusion of {len(matrices)} rankers: train MAP "
          f"{weights.train_map:.4f} after {len(weights.rounds)} rounds -> {out}")
    return 0


def _cmd_ensemble_apply(args) -> int:
    """Add the score files into the fused matrix one at a time: each file
    is checked against the first file's ids, weighted (by its tag under
    ``--weights``) and released before the next loads, so the fused scores
    and one input are the only whole matrices held."""
    if args.uniform == bool(args.weights):
        raise UsageError("pass exactly one of --weights or --uniform")
    if args.weights:
        doc = json.loads(Path(args.weights).read_text())
        tags, alpha = (doc.get("tags"), doc.get("alpha")) if isinstance(
            doc, dict) else (None, None)
        if not (isinstance(tags, list)
                and all(isinstance(tag, str) for tag in tags)):
            raise ValueError("weights file: needs an object whose tags are "
                             "a list of strings")
        _distinct(tags, "weights file")
        if not (isinstance(alpha, list) and len(alpha) == len(tags)
                and all(isinstance(a, (int, float)) and 0 <= a < np.inf
                        for a in alpha)):
            raise ValueError(f"weights file: {len(tags)} tags need as many "
                             f"finite alpha >= 0, not {alpha}")
        by_tag = dict(zip(tags, map(float, alpha)))
    loaded = [bundle.load_scores(args.scores[0])]
    # the first file's tag and ids, which every file is checked against,
    # until the sum is done
    fused = dataclasses.replace(loaded[0],
                                scores=np.empty_like(loaded[0].scores))

    def term(path):
        matrix = loaded.pop() if loaded else bundle.load_scores(path)
        validate_alignment([fused, matrix])
        if args.uniform:
            return 1.0 / len(args.scores), matrix.scores
        if matrix.tag not in by_tag:
            raise ValueError(f"weights file lacks tags {[matrix.tag]}")
        return by_tag[matrix.tag], matrix.scores

    weighted_sum(map(term, args.scores), fused.scores)
    fused.tag = args.tag
    out = bundle.save_scores(config.resolve_out_path(args.out), fused)
    print(f"combined {len(args.scores)} score files -> {out}")
    return 0


def _cmd_ensemble_crossval(args) -> int:
    qrels = _judged_pairs(args.corpus)
    matrices = _load_score_files(args.scores)
    report = cross_validate(matrices, qrels, n_folds=args.folds,
                            seed=args.seed, eps=args.eps,
                            max_rounds=args.max_rounds)
    doc = {
        "folds": [
            {"test_queries": f.test_rows.tolist(),
             "test_map": f.test_map,
             "uniform_test_map": f.uniform_test_map,
             "constituents": f.constituent_test_maps,
             "alpha": f.weights.alpha.tolist(),
             "normalized": f.weights.normalized().tolist()}
            for f in report.folds
        ],
        "mean_test_map": report.mean_test_map,
        "mean_uniform_test_map": report.mean_uniform_test_map,
        "mean_constituent_test_maps": report.mean_constituent_test_maps(),
    }
    print(f"cross-validated fusion: mean test MAP {report.mean_test_map:.4f} "
          f"(uniform {report.mean_uniform_test_map:.4f})")
    if args.out:
        _write_json(args.out, doc)
    return 0


def _cmd_sweep(args) -> int:
    built = corpus_mod.load_corpus(args.corpus)
    rows = pipeline.sweep_topics(built, args.method, args.ks, args.seeds)
    for row in rows:
        print(f"k={row['k']:<5d} seed={row['seed']:<3d} MAP {row['map']:.4f}")
    if args.out:
        _write_json(args.out, rows)
    return 0


def _cmd_ldi_inspect(args) -> int:
    terms = corpus_mod.load_corpus_arrays(args.corpus, ())[0]["terms"]
    fitted = pipeline.load_fitted(args.model)
    if fitted.kind != "lda":
        raise ValueError("ldi inspect needs an lda model bundle")
    w = word_topic_matrix(fitted.payload.beta)
    vocab = corpus_mod.Vocabulary(terms=terms)
    for term in args.term:
        if term not in vocab:
            print(f"{term}: not in vocabulary")
            continue
        row = w[vocab[term]]
        vec = " ".join(f"{v:.4f}" for v in row)
        print(f"{term}: [{vec}]")
        sims = cosine_scores(row[None, :], w)[0]
        order = np.argsort(-sims)
        neighbors = [vocab.terms[j] for j in order if vocab.terms[j] != term]
        print("  nearest: " + ", ".join(neighbors[:args.top]))
    return 0


_DATA_ERRORS = (corpus_mod.ParseError, FileNotFoundError, FileExistsError,
                NotADirectoryError, IsADirectoryError, PermissionError,
                KeyError, ValueError, json.JSONDecodeError)
_NUMERIC_ERRORS = (RuntimeError, FloatingPointError, np.linalg.LinAlgError,
                   OverflowError)


def main(argv=None) -> int:
    """Run one command; returns its exit code.  Callable repeatedly in one
    process: the parser is built once, handlers are looked up per call."""
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        ("corpus", "build"): _cmd_corpus_build,
        ("train", None): _cmd_train,
        ("score", None): _cmd_score,
        ("eval", None): _cmd_eval,
        ("ensemble", "train"): _cmd_ensemble_train,
        ("ensemble", "apply"): _cmd_ensemble_apply,
        ("ensemble", "crossval"): _cmd_ensemble_crossval,
        ("sweep", None): _cmd_sweep,
        ("ldi", "inspect"): _cmd_ldi_inspect,
    }
    handler = handlers[(args.command, getattr(args, "subcommand", None))]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
