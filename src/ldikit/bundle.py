"""One on-disk format for every saved artifact: a corpus, a fitted model or
a score matrix is one file.  Its first line is a compact JSON header:
``bundle_version``, the ``kind``, scalar fields, each CSR matrix's shape
under ``sparse``, and under ``arrays`` each stored array's shape and dtype
(a CSR matrix as its three parts).  The arrays' little-endian C-order bytes
follow back to back, in header order.  A ``.csv`` score path is plain CSV.
Every write goes to a temp sibling renamed over the target, so the target
is whole or absent after a killed process (there is no fsync, so not after
a power loss).  The writer holds an exclusive ``flock`` on its temp until
the rename; a temp sibling that no process holds was left by a killed save,
and the next save to that target removes it.
"""

from __future__ import annotations

import contextlib
import fcntl
import glob
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .ensemble import ScoreMatrix

BUNDLE_VERSION = 2

_DTYPE_TAGS = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
# the command that writes each kind of artifact; every other kind is a model
_MAKERS = {"corpus": "ldikit corpus build", "scores": "ldikit score"}
_CSR_PARTS = ("data", "indices", "indptr")
# what follows ``.NAME.`` in the name of a temp sibling of NAME
_TEMP_SUFFIX = re.compile(r"[0-9]+-[0-9a-f]{8}")


@contextlib.contextmanager
def replacing(path):
    """Write ``path`` (through any symlink) as a temp sibling opened for
    binary writing, renamed into place when the block ends and removed if
    it fails.  Temp siblings that killed saves left are removed first."""
    if Path(path).is_dir():
        raise IsADirectoryError(f"refusing to replace directory {path} "
                                "with a file")
    real = Path(os.path.realpath(path))
    real.parent.mkdir(parents=True, exist_ok=True)
    _remove_stale_temps(real)
    tmp, fh = _locked_temp(real)
    try:
        with fh:
            yield fh
            fh.flush()
            # renamed while still locked, so no save takes it for stale
            os.replace(tmp, real)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _locked_temp(real: Path):
    """A new temp sibling ``.NAME.PID-RANDOM`` of ``real``, opened for
    binary writing under an exclusive ``flock`` held until it is closed."""
    while True:
        tmp = real.with_name(
            f".{real.name}.{os.getpid()}-{os.urandom(4).hex()}")
        fh = open(tmp, "xb")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            # another save may have found the new file unlocked, taken it
            # for stale and removed it before the lock was taken
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(tmp)):
                return tmp, fh
        except FileNotFoundError:
            pass
        except BaseException:
            fh.close()
            tmp.unlink(missing_ok=True)
            raise
        fh.close()


def _remove_stale_temps(real: Path) -> None:
    """Remove the temp siblings of ``real`` that no writer holds locked."""
    for tmp in real.parent.glob(f".{glob.escape(real.name)}.*"):
        if not _TEMP_SUFFIX.fullmatch(tmp.name[len(real.name) + 2:]):
            continue
        try:
            fd = os.open(tmp, os.O_RDONLY)
        except OSError:         # removed meanwhile, or not readable
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            tmp.unlink()
        except OSError:         # its writer is live, or it is gone
            pass
        finally:
            os.close(fd)


def _stored(array) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype.kind == "f":
        return np.ascontiguousarray(array, dtype="<f8")
    if array.dtype.kind in "iub":
        return np.ascontiguousarray(array, dtype="<i8")
    raise TypeError(f"cannot persist array of dtype {array.dtype}")


def save_model(path, kind: str, fields: dict, arrays: dict) -> Path:
    """Write one artifact file.  ``arrays`` values are dense arrays or CSR
    matrices; everything else belongs in ``fields``."""
    stored, sparse = {}, {}
    for name, value in arrays.items():
        if sp.issparse(value):
            csr = value.tocsr()
            sparse[name] = list(csr.shape)
            for part in _CSR_PARTS:
                stored[f"{name}.{part}"] = _stored(getattr(csr, part))
        else:
            stored[name] = _stored(value)
    header = {"bundle_version": BUNDLE_VERSION, "kind": kind, **fields,
              "sparse": sparse,
              "arrays": {name: {"shape": list(a.shape), "dtype": a.dtype.str}
                         for name, a in stored.items()}}
    with replacing(path) as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        for array in stored.values():
            fh.write(array)
    return Path(path)


def load_model(path, kind: str | None = None):
    """Read an artifact file back as (header, arrays), checking that it
    holds a ``kind`` artifact when ``kind`` is given."""
    path = Path(path)
    remedy = f"rebuild it with `{_MAKERS.get(kind, 'ldikit train')}`"
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory, as bundles before "
                                f"version {BUNDLE_VERSION} were; {remedy}")
    with path.open("rb") as fh:
        header = json.loads(fh.readline())
        version = (header.get("bundle_version") if isinstance(header, dict)
                   else None)
        if version != BUNDLE_VERSION:
            raise ValueError(f"{path.name} has bundle version {version}; "
                             f"{remedy}")
        if kind not in (None, header["kind"]):
            raise ValueError(f"{path.name} holds a {header['kind']!r} "
                             f"bundle, not a {kind!r} one")
        sparse = header.pop("sparse")
        layout = {name: (_DTYPE_TAGS[e["dtype"]], tuple(map(int, e["shape"])))
                  for name, e in header.pop("arrays").items()}
        expected = sum(dtype.itemsize * math.prod(shape)
                       for dtype, shape in layout.values())
        # sized from the file before anything is allocated for the payload
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held == expected:
            arrays = {name: np.empty(shape, dtype=dtype)
                      for name, (dtype, shape) in layout.items()}
            held = sum(fh.readinto(array) for array in arrays.values())
    if held != expected:
        raise ValueError(f"{path.name} holds {held} payload bytes; its "
                         f"header's arrays need {expected}")
    for name, shape in sparse.items():
        arrays[name] = sp.csr_matrix(
            tuple(arrays.pop(f"{name}.{part}") for part in _CSR_PARTS),
            shape=shape)
    return header, arrays


def save_scores(path, matrix: ScoreMatrix) -> Path:
    """One file: a score artifact, or a plain CSV for a ``.csv`` path."""
    path = Path(path)
    if path.suffix != ".csv":
        return save_model(path, "scores", {"tag": matrix.tag},
                          {"query_ids": matrix.query_ids,
                           "doc_ids": matrix.doc_ids,
                           "scores": np.asarray(matrix.scores, dtype=float)})
    with replacing(path) as fh:
        fh.write(("query," + ",".join(str(d) for d in matrix.doc_ids)
                  + "\n").encode())
        for qid, row in zip(matrix.query_ids, matrix.scores):
            fh.write((f"{int(qid)}," + ",".join(repr(float(v)) for v in row)
                      + "\n").encode())
    return path


def load_scores(path) -> ScoreMatrix:
    path = Path(path)
    if path.suffix != ".csv":
        header, arrays = load_model(path, "scores")
        return ScoreMatrix(tag=header["tag"], scores=arrays["scores"],
                           query_ids=arrays["query_ids"],
                           doc_ids=arrays["doc_ids"])
    with path.open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        doc_ids = np.array([int(d) for d in header[1:]], dtype=np.int64)
        query_ids, rows = [], []
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) - 1 != len(doc_ids):
                raise ValueError(
                    f"score file {path.name} line {line_no} holds "
                    f"{len(parts) - 1} scores; its header has "
                    f"{len(doc_ids)} doc ids")
            query_ids.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return ScoreMatrix(tag=path.stem, scores=np.array(rows),
                       query_ids=np.array(query_ids, dtype=np.int64),
                       doc_ids=doc_ids)
