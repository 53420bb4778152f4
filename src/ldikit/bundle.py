"""On-disk formats for fitted models, corpora and score matrices.

A bundle (a fitted model, or a corpus under kind ``"corpus"``) is a
directory: ``manifest.json`` plus one raw array file per named array,
little-endian, C-order.  Sparse matrices expand to their three component
arrays.  A score matrix is a single file: one JSON header line, then the
raw float64 scores; a ``.csv`` path gets a plain CSV instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .ensemble import ScoreMatrix

BUNDLE_VERSION = 1

_DTYPE_TAGS = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def _write_array(path: Path, array: np.ndarray) -> dict:
    array = np.ascontiguousarray(array)
    if array.dtype.kind == "f":
        array = array.astype("<f8")
    elif array.dtype.kind in "iub":
        array = array.astype("<i8")
    else:
        raise TypeError(f"cannot persist array of dtype {array.dtype}")
    path.write_bytes(array.tobytes())
    return {"file": path.name, "shape": list(array.shape),
            "dtype": array.dtype.str}


def save_model(out_dir, kind: str, manifest: dict, arrays: dict) -> Path:
    """Write a model bundle.  ``arrays`` values are dense arrays or CSR
    matrices; everything else belongs in ``manifest``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, value in arrays.items():
        if sp.issparse(value):
            csr = value.tocsr()
            entries[name] = {
                "sparse": "csr",
                "shape": list(csr.shape),
                "data": _write_array(out / f"{name}.data.bin", csr.data),
                "indices": _write_array(out / f"{name}.indices.bin", csr.indices),
                "indptr": _write_array(out / f"{name}.indptr.bin", csr.indptr),
            }
        else:
            entries[name] = _write_array(out / f"{name}.bin", np.asarray(value))
    doc = {"bundle_version": BUNDLE_VERSION, "kind": kind,
           **manifest, "arrays": entries}
    (out / "manifest.json").write_text(json.dumps(doc, indent=1))
    return out


def _read_array(src: Path, entry: dict) -> np.ndarray:
    dtype = _DTYPE_TAGS[entry["dtype"]]
    expected = dtype.itemsize * int(np.prod(entry["shape"]))
    with (src / entry["file"]).open("rb") as fh:
        # sized from the file before anything is allocated for it
        held = os.fstat(fh.fileno()).st_size
        if held == expected:
            array = np.empty(entry["shape"], dtype=dtype)
            held = fh.readinto(array)
    if held != expected:
        raise ValueError(f"array file {entry['file']} holds {held} bytes; "
                         f"its manifest entry needs {expected}")
    return array


def load_model(in_dir, manifest: dict | None = None):
    """Read a model bundle back as (manifest, arrays).  ``manifest`` is the
    bundle's ``manifest.json`` when the caller has already parsed it."""
    src = Path(in_dir)
    doc = (json.loads((src / "manifest.json").read_text())
           if manifest is None else manifest)
    if doc.get("bundle_version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {doc.get('bundle_version')}")
    arrays = {}
    for name, entry in doc.pop("arrays").items():
        if entry.get("sparse") == "csr":
            arrays[name] = sp.csr_matrix(
                (_read_array(src, entry["data"]),
                 _read_array(src, entry["indices"]),
                 _read_array(src, entry["indptr"])),
                shape=entry["shape"])
        else:
            arrays[name] = _read_array(src, entry)
    return doc, arrays


def save_scores(path, matrix: ScoreMatrix) -> Path:
    """One file: JSON header line then raw float64 scores (CSV if .csv)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".csv":
        with path.open("w") as fh:
            fh.write("query," + ",".join(str(d) for d in matrix.doc_ids) + "\n")
            for qid, row in zip(matrix.query_ids, matrix.scores):
                fh.write(str(int(qid)) + "," +
                         ",".join(repr(float(v)) for v in row) + "\n")
        return path
    header = {
        "bundle_version": BUNDLE_VERSION,
        "tag": matrix.tag,
        "query_ids": matrix.query_ids.tolist(),
        "doc_ids": matrix.doc_ids.tolist(),
        "dtype": "<f8",
    }
    with path.open("wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(np.ascontiguousarray(matrix.scores, dtype="<f8"))
    return path


def load_scores(path) -> ScoreMatrix:
    path = Path(path)
    if path.suffix == ".csv":
        with path.open() as fh:
            header = fh.readline().rstrip("\n").split(",")
            doc_ids = np.array([int(d) for d in header[1:]], dtype=np.int64)
            query_ids = []
            rows = []
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
    with path.open("rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("bundle_version") != BUNDLE_VERSION:
            raise ValueError("unsupported score file version")
        query_ids = np.array(header["query_ids"], dtype=np.int64)
        doc_ids = np.array(header["doc_ids"], dtype=np.int64)
        dtype = _DTYPE_TAGS[header["dtype"]]
        expected = dtype.itemsize * len(query_ids) * len(doc_ids)
        # sized from the file before anything is allocated for the payload
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held == expected:
            scores = np.empty((len(query_ids), len(doc_ids)), dtype=dtype)
            held = fh.readinto(scores)
    if held != expected:
        raise ValueError(f"score file {path.name} holds {held} payload "
                         f"bytes; its header's {len(query_ids)} queries x "
                         f"{len(doc_ids)} docs need {expected}")
    return ScoreMatrix(tag=header["tag"], scores=scores,
                       query_ids=query_ids, doc_ids=doc_ids)
