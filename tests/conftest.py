"""Shared fixtures: classic collection discovery and cached demo fits.

The classic test collections are not redistributable with the package.
Tests that need one look under LDIKIT_DATA_DIR (or ./data) and skip with
an explicit message when the files are absent.
"""

import pytest

from ldikit import config
from ldikit.corpus import build_corpus, load_collection, smart_stoplist


def collection_paths(name):
    root = config.data_root()
    return config.find_collection_files(root, name)


def require_collection(name):
    found = collection_paths(name)
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
