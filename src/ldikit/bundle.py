"""One on-disk format for every saved artifact: a corpus, a fitted model or
a score matrix is one file.  Its first line is a compact JSON header:
``bundle_version``, the ``kind``, scalar fields, each CSR matrix's shape
under ``sparse``, and under ``arrays`` each stored array's shape and dtype
(a CSR matrix as its three parts), and for a bundle saved with digests
(a corpus) its sha256.  The arrays' little-endian C-order bytes follow
back to back, in header order, so a reader can read some arrays and seek
past the rest.
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
import hashlib
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


def _stored_arrays(arrays: dict) -> tuple[dict, dict]:
    """Each array's stored form by stored name (a CSR matrix as its three
    parts), and each CSR matrix's shape."""
    stored, sparse = {}, {}
    for name, value in arrays.items():
        if sp.issparse(value):
            csr = value.tocsr()
            sparse[name] = list(csr.shape)
            for part in _CSR_PARTS:
                stored[f"{name}.{part}"] = _stored(getattr(csr, part))
        else:
            stored[name] = _stored(value)
    return stored, sparse


def _digest(array: np.ndarray) -> str:
    """The sha256 of a stored array's bytes, the one hash of array bytes."""
    return hashlib.sha256(array).hexdigest()


def stored_digests(arrays: dict) -> dict:
    """{stored name: sha256} of ``arrays`` as `save_model` stores them."""
    return {name: _digest(a) for name, a in _stored_arrays(arrays)[0].items()}


def save_model(path, kind: str, fields: dict, arrays: dict,
               digests: dict | None = None) -> Path:
    """Write one artifact file.  ``arrays`` values are dense arrays or CSR
    matrices; everything else belongs in ``fields``.  ``digests``, the
    `stored_digests` of ``arrays``, go into their stored arrays' entries."""
    stored, sparse = _stored_arrays(arrays)
    entries = {name: {"shape": list(a.shape), "dtype": a.dtype.str}
               | ({"sha256": digests[name]} if digests else {})
               for name, a in stored.items()}
    header = {"bundle_version": BUNDLE_VERSION, "kind": kind, **fields,
              "sparse": sparse, "arrays": entries}
    with replacing(path) as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        for array in stored.values():
            fh.write(array)
    return Path(path)


def load_model(path, kind: str | None = None, names=None):
    """Read an artifact file back as (header, arrays), checking that it
    holds a ``kind`` artifact when ``kind`` is given.

    With ``names``, only those arrays (a CSR matrix by its own name) are
    read, and each is checked against the sha256 its header records
    before it is returned; the reader seeks past the others.  Every
    stored array must then record one, and the header's ``digests`` maps
    each stored array, in stored order, to its sha256.  A whole read
    hashes nothing: models and scores record no digests.
    """
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
        entries = header.pop("arrays")
        layout = {name: (_DTYPE_TAGS[e["dtype"]], tuple(map(int, e["shape"])))
                  for name, e in entries.items()}
        if names is None:
            wanted = layout
        else:
            sparse = {name: sparse[name] for name in names if name in sparse}
            wanted = _stored_parts(path, names, sparse, entries)
            digests = _recorded_digests(path, entries, remedy)
        sizes = {name: dtype.itemsize * math.prod(shape)
                 for name, (dtype, shape) in layout.items()}
        expected = sum(sizes.values())
        # sized from the file before anything is allocated for the payload
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held == expected:
            arrays, held = {}, 0
            for name, (dtype, shape) in layout.items():
                if name in wanted:
                    arrays[name] = np.empty(shape, dtype=dtype)
                    held += fh.readinto(arrays[name])
                else:
                    fh.seek(sizes[name], os.SEEK_CUR)
                    held += sizes[name]
    if held != expected:
        raise ValueError(f"{path.name} holds {held} payload bytes; its "
                         f"header's arrays need {expected}")
    if names is not None:
        for name, array in arrays.items():
            _check_digest(path, name, array, digests[name])
        header["digests"] = digests
    for name, shape in sparse.items():
        arrays[name] = sp.csr_matrix(
            tuple(arrays.pop(f"{name}.{part}") for part in _CSR_PARTS),
            shape=shape)
    return header, arrays


def _check_digest(path: Path, name: str, array: np.ndarray,
                  digest: str) -> None:
    """Raise unless the bytes of ``array`` (stored as ``name``) have the
    sha256 ``digest``."""
    if _digest(array) != digest:
        raise ValueError(f"{path.name}: array {name!r} does not match its "
                         "sha256 checksum")


def _stored_parts(path: Path, names, sparse: dict, entries: dict) -> set:
    """The stored names of the arrays ``names`` calls for (a CSR matrix as
    its three parts); each must be stored."""
    wanted = set()
    for name in names:
        parts = ([f"{name}.{part}" for part in _CSR_PARTS]
                 if name in sparse else [name])
        for part in parts:
            if part not in entries:
                raise ValueError(f"{path.name} holds no {part!r} array")
            wanted.add(part)
    return wanted


def _recorded_digests(path: Path, entries: dict, remedy: str) -> dict:
    """{stored name: sha256} of every stored array, in stored order; each
    must be stored with a digest."""
    for name, entry in entries.items():
        if "sha256" not in entry:
            raise ValueError(f"{path.name} records no sha256 of its "
                             f"{name!r} array; {remedy}")
    return {name: entry["sha256"] for name, entry in entries.items()}


def save_scores(path, matrix: ScoreMatrix) -> Path:
    """Write a score matrix as one ``scores`` artifact file."""
    return save_model(path, "scores", {"tag": matrix.tag},
                      {"query_ids": matrix.query_ids,
                       "doc_ids": matrix.doc_ids,
                       "scores": np.asarray(matrix.scores, dtype=float)})


def load_scores(path) -> ScoreMatrix:
    """Read a ``scores`` artifact file back as a score matrix."""
    header, arrays = load_model(path, "scores")
    return ScoreMatrix(tag=header["tag"], scores=arrays["scores"],
                       query_ids=arrays["query_ids"],
                       doc_ids=arrays["doc_ids"])
