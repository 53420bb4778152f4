"""Shared fixtures and helpers: classic collection discovery, cached demo
fits, small count matrices and bundle header edits.

The classic test collections are not redistributable with the package.
Tests that need one look under LDIKIT_DATA_DIR (or ./data) and skip with
an explicit message when the files are absent.
"""

import copy
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ldikit.corpus import (TermDocCounts, build_corpus, load_collection,
                           smart_stoplist)

DATA_DIR_ENV = "LDIKIT_DATA_DIR"

# Customary file triples (documents, queries, judgments) per collection.
STANDARD_FILES = {
    "MED": ("MED.ALL", "MED.QRY", "MED.REL"),
    "CRAN": ("cran.all.1400", "cran.qry", "cranqrel"),
    "CISI": ("CISI.ALL", "CISI.QRY", "CISI.REL"),
    "CACM": ("cacm.all", "query.text", "qrels.text"),
}


def data_root(explicit=None):
    """The collection directory: explicit argument, environment, or ./data."""
    explicit = explicit or os.environ.get(DATA_DIR_ENV)
    if explicit:
        return Path(explicit)
    return Path("data") if Path("data").is_dir() else None


def find_collection_files(root, name):
    """The (documents, queries, judgments) files of one collection under
    ``root``, found recursively by their customary names in any case; None
    when any of the three is missing."""
    wanted = STANDARD_FILES.get(name.upper())
    if root is None or wanted is None or not Path(root).is_dir():
        return None
    lowered = {p.name.lower(): p for p in sorted(Path(root).rglob("*"))
               if p.is_file()}
    found = tuple(lowered.get(filename.lower()) for filename in wanted)
    return None if None in found else found


def require_collection(name):
    found = find_collection_files(data_root(), name)
    if found is None:
        pytest.skip(f"collection {name} not found; place its files under "
                    f"$LDIKIT_DATA_DIR or ./data to run this test")
    return found


_CORPUS_CACHE = {}


def standard_corpus(name):
    """Build (and cache) one classic collection with the stock stop list."""
    if name not in _CORPUS_CACHE:
        docs, queries, qrels = require_collection(name)
        collection = load_collection(docs, queries, qrels, name=name)
        _CORPUS_CACHE[name] = build_corpus(collection,
                                           stoplist=smart_stoplist())
    return _CORPUS_CACHE[name]


@pytest.fixture(scope="session")
def demo_fit():
    from ldikit.demo import fit_demo_topics

    return fit_demo_topics(seed=0)


@pytest.fixture
def token_cells_built(monkeypatch):
    """The row count of every ``TokenCells`` built from a matrix during the
    test, in order (sub-blocks cut with ``rows`` are not built)."""
    from ldikit.lda import TokenCells

    built = []
    init = TokenCells.__init__

    def counting_init(self, matrix):
        built.append(matrix.shape[0])
        init(self, matrix)

    monkeypatch.setattr(TokenCells, "__init__", counting_init)
    return built


def _poison(value):
    """Fill the float arrays reachable from ``value`` with NaN and empty its
    lists, through dataclass fields."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        value.fill(np.nan)
    elif isinstance(value, list):
        value.clear()
    elif hasattr(value, "__dataclass_fields__"):
        for field_value in vars(value).values():
            _poison(field_value)


@pytest.fixture
def resumed_after(monkeypatch):
    """``resumed_after(m)`` makes every topic fit stop after pass m and go
    on from ``copy.deepcopy`` of its state: each field of the fit is
    replaced by a deep copy, and the arrays and lists of the old fields are
    poisoned, so a pass that read anything the state does not hold would
    read NaN or nothing.  Returns the list of pass counts at which a fit
    was cut."""
    from ldikit import lda

    run_passes = lda.run_passes
    cuts = []

    def install(m):
        def cut_at(fit, step, max_passes):
            for _ in range(min(m, max_passes)):
                reason = step(fit)
                if reason:
                    return reason
            old = dict(vars(fit))
            vars(fit).update(copy.deepcopy(old))
            for value in old.values():
                _poison(value)
            cuts.append(m)
            return run_passes(fit, step, max_passes - m)

        monkeypatch.setattr(lda, "run_passes", cut_at)
        return cuts

    return install


def make_counts(rows):
    matrix = sp.csr_matrix(np.asarray(rows, dtype=np.int64))
    return TermDocCounts(matrix=matrix,
                         doc_lengths=np.asarray(matrix.sum(axis=1)).ravel())


def random_counts(n_docs, n_terms, seed, max_count=4):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, max_count, size=(n_docs, n_terms))
    rows[np.arange(n_docs), rng.integers(0, n_terms, n_docs)] += 1
    return make_counts(rows)


def bound_never_drops(trace, slack=1e-8):
    values = np.asarray(trace, dtype=float)
    floor = slack * np.maximum(np.abs(values[:-1]), 1.0)
    return bool(np.all(np.diff(values) >= -floor))


def edit_header(path, **changes):
    """Update fields of a bundle file's JSON header line in place, keeping
    its payload bytes."""
    path = Path(path)
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc.update(changes)
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)


def traced_peak(call):
    """(result, peak bytes) of ``call()``: the most memory that Python and
    numpy held at once during the call beyond what was held when it
    started (``tracemalloc``)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
