"""Experiment configuration: collection locations, defaults, environment.

The classic test collections are not bundled; point ``LDIKIT_DATA_DIR`` at a
directory containing them under their customary file names and the lookup
helpers below will find them, case-insensitively, in any subdirectory.
"""

from __future__ import annotations

import os
from pathlib import Path

DATA_DIR_ENV = "LDIKIT_DATA_DIR"
OUT_DIR_ENV = "LDIKIT_OUT_DIR"

# Customary file triples (documents, queries, judgments) per collection.
STANDARD_FILES = {
    "MED": ("MED.ALL", "MED.QRY", "MED.REL"),
    "CRAN": ("cran.all.1400", "cran.qry", "cranqrel"),
    "CISI": ("CISI.ALL", "CISI.QRY", "CISI.REL"),
    "CACM": ("cacm.all", "query.text", "qrels.text"),
}

# Topic counts that maximized retrieval quality per method and collection.
DEFAULT_TOPIC_COUNTS = {
    "lsi": {"MED": 100, "CRAN": 125, "CISI": 150, "CACM": 125, "MC": 500},
    "plsi": {"MED": 100, "CRAN": 150, "CISI": 50, "CACM": 75, "MC": 400},
    "lda": {"MED": 100, "CRAN": 100, "CISI": 100, "CACM": 75, "MC": 200},
}


def default_topic_count(method: str, collection: str) -> int | None:
    from .pipeline import resolve_method

    return DEFAULT_TOPIC_COUNTS.get(resolve_method(method), {}).get(
        collection.upper())


def data_root(explicit=None) -> Path | None:
    """The collection directory: explicit flag, environment, or ./data."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    fallback = Path("data")
    return fallback if fallback.is_dir() else None


def resolve_out_path(path) -> Path:
    """Relative output paths land under ``LDIKIT_OUT_DIR`` when it is set."""
    path = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def find_collection_files(root, name: str):
    """Locate the (documents, queries, judgments) files for one collection.

    Searches ``root`` recursively, matching the customary names without
    case sensitivity.  Returns None when any of the three is missing.
    """
    if root is None:
        return None
    root = Path(root)
    if not root.is_dir():
        return None
    wanted = STANDARD_FILES.get(name.upper())
    if wanted is None:
        return None
    lowered = {p.name.lower(): p for p in sorted(root.rglob("*")) if p.is_file()}
    found = []
    for filename in wanted:
        hit = lowered.get(filename.lower())
        if hit is None:
            return None
        found.append(hit)
    return tuple(found)
