"""Versioned JSON file formats: classes, sequences, certificates, families.

A class file carries `kind` ("multiclass" with K, or "real" with its value
grid), `domain_size` and `rows`.  All writers emit keys in a fixed order at
full float precision, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classes import HypothesisClass, LabeledExample, RealFunctionClass
from .thresholds import ThresholdFamily
from .trees import MistakeTree, tree_from_dict, tree_to_dict

CLASS_FORMAT = "classfile/1"
SEQ_FORMAT = "seqfile/1"
CERT_FORMAT = "certfile/1"
FAMILY_FORMAT = "familyfile/1"


def _dump(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load(path, expected: str) -> dict:
    doc = json.loads(Path(path).read_text())
    fmt = doc.get("format")
    if fmt != expected:
        raise ValueError(f"{path}: expected format {expected!r}, found {fmt!r}")
    return doc


# --- classes ---------------------------------------------------------------

def save_class(cls, path) -> None:
    if isinstance(cls, HypothesisClass):
        doc = {
            "format": CLASS_FORMAT,
            "kind": "multiclass",
            "K": cls.K,
            "domain_size": cls.domain_size,
            "rows": cls.table.tolist(),
        }
    elif isinstance(cls, RealFunctionClass):
        doc = {
            "format": CLASS_FORMAT,
            "kind": "real",
            "grid": cls.grid,
            "domain_size": cls.domain_size,
            "rows": cls.table.tolist(),
        }
    else:
        raise TypeError(f"cannot save {type(cls).__name__} as a class file")
    _dump(doc, path)


def load_class(path):
    doc = _load(path, CLASS_FORMAT)
    kind = doc.get("kind")
    rows = doc["rows"]
    if len(rows) == 0 or any(len(r) != doc["domain_size"] for r in rows):
        raise ValueError(f"{path}: rows do not match domain_size")
    if kind == "multiclass":
        K = doc["K"]
        if not isinstance(K, int) or isinstance(K, bool):
            raise ValueError(f"{path}: K must be an integer, found {K!r}")
        return HypothesisClass(K, rows)
    if kind == "real":
        grid = doc.get("grid")
        table = np.asarray(rows, dtype=np.float64)
        if grid is not None:
            # values must sit on the declared decimal grid
            steps = (table + 1.0) / float(grid)
            if not np.allclose(steps, np.round(steps), atol=1e-9):
                raise ValueError(f"{path}: values stray from the declared grid")
        return RealFunctionClass(table, grid=grid)
    raise ValueError(f"{path}: unknown class kind {kind!r}")


# --- sequences -------------------------------------------------------------

def save_sequence(examples, path) -> None:
    doc = {
        "format": SEQ_FORMAT,
        "examples": [[ex.x, ex.y] for ex in examples],
    }
    _dump(doc, path)


def load_sequence(path) -> list:
    doc = _load(path, SEQ_FORMAT)
    return [LabeledExample(int(x), y) for x, y in doc["examples"]]


# --- certificates ----------------------------------------------------------

def save_certificate(tree: MistakeTree, path, params: dict | None = None) -> None:
    doc = {"format": CERT_FORMAT, "params": params or {}}
    doc.update(tree_to_dict(tree))
    _dump(doc, path)


def load_certificate(path) -> MistakeTree:
    doc = _load(path, CERT_FORMAT)
    return tree_from_dict(doc)


# --- threshold families ----------------------------------------------------

def save_family(fam: ThresholdFamily, path) -> None:
    doc = {
        "format": FAMILY_FORMAT,
        "kind": fam.kind,
        "points": list(fam.points),
        "functions": [list(f) for f in fam.functions],
        "labels": list(fam.labels) if fam.labels else None,
        "gap": fam.gap,
        "bounds": list(fam.bounds) if fam.bounds else None,
        "margin": fam.margin,
        "band": fam.band,
    }
    _dump(doc, path)


def load_family(path) -> ThresholdFamily:
    doc = _load(path, FAMILY_FORMAT)
    return ThresholdFamily(
        kind=doc["kind"],
        points=[int(x) for x in doc["points"]],
        functions=[tuple(f) for f in doc["functions"]],
        labels=tuple(doc["labels"]) if doc.get("labels") else None,
        gap=doc.get("gap"),
        bounds=tuple(doc["bounds"]) if doc.get("bounds") else None,
        margin=doc.get("margin"),
        band=doc.get("band"),
    )
