"""Experiment configuration: the paper's topic counts and the output
directory.

``LDIKIT_OUT_DIR``, when set, is where relative output paths land.  The
classic test collections are not bundled; every command takes their file
paths explicitly.
"""

from __future__ import annotations

import os
from pathlib import Path

OUT_DIR_ENV = "LDIKIT_OUT_DIR"

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


def resolve_out_path(path) -> Path:
    """Relative output paths land under ``LDIKIT_OUT_DIR`` when it is set."""
    path = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path

