"""Versioned JSON file formats: classes, sequences, certificates, families.

A class file carries `kind` ("multiclass" with K, or "real" with its value
grid), `domain_size` and `rows`; a sequence file carries `examples`, the
[x, y] pairs of an (xs, ys) sample.  All writers emit keys in a fixed order
at full float precision, so identical inputs produce byte-identical files.
A malformed document is a ValueError naming the file and the key.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from .classes import HypothesisClass, RealFunctionClass, integer_sample
from .thresholds import ThresholdFamily
from .trees import MistakeTree, tree_from_dict, tree_to_dict

CLASS_FORMAT = "classfile/1"
SEQ_FORMAT = "seqfile/1"
CERT_FORMAT = "certfile/1"
FAMILY_FORMAT = "familyfile/1"


def _dump(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_json_object(path, expected: str | None = None, lists=()) -> dict:
    """The JSON object at `path`, of format `expected` unless that is None,
    whose keys `lists` hold JSON lists."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, "
                         f"found {type(doc).__name__}")
    fmt = doc.get("format")
    if expected is not None and fmt != expected:
        raise ValueError(f"{path}: expected format {expected!r}, found {fmt!r}")
    for key in lists:
        if not isinstance(doc.get(key), list):
            found = type(doc[key]).__name__ if key in doc else "no such key"
            raise ValueError(f"{path}: key {key!r} must be a list, found {found}")
    return doc


# --- classes ---------------------------------------------------------------

def save_class(cls, path) -> None:
    if isinstance(cls, HypothesisClass):
        kind = {"kind": "multiclass", "K": cls.K}
    elif isinstance(cls, RealFunctionClass):
        kind = {"kind": "real", "grid": cls.grid}
    else:
        raise TypeError(f"cannot save {type(cls).__name__} as a class file")
    _dump({"format": CLASS_FORMAT, **kind, "domain_size": cls.domain_size,
           "rows": cls.table.tolist()}, path)


def load_class(path):
    doc = read_json_object(path, CLASS_FORMAT, lists=("rows",))
    kind = doc.get("kind")
    rows, width = doc["rows"], doc.get("domain_size")
    if not rows or any(not isinstance(r, list) or len(r) != width for r in rows):
        raise ValueError(f"{path}: key 'rows' must list rows of "
                         f"domain_size = {width!r} values")
    if kind == "multiclass":
        K = doc.get("K")
        if not isinstance(K, int) or isinstance(K, bool):
            raise ValueError(f"{path}: K must be an integer, found {K!r}")
        return HypothesisClass(K, rows)
    if kind == "real":
        grid = doc.get("grid")
        if grid is not None and type(grid) not in (int, float):
            raise ValueError(f"{path}: key 'grid' must be a number, found {grid!r}")
        table = np.asarray(rows, dtype=np.float64)
        if grid is not None:
            # values must sit on the declared decimal grid
            steps = (table + 1.0) / float(grid)
            if not np.allclose(steps, np.round(steps), atol=1e-9):
                raise ValueError(f"{path}: values stray from the declared grid")
        return RealFunctionClass(table, grid=grid)
    raise ValueError(f"{path}: unknown class kind {kind!r}")


# --- sequences -------------------------------------------------------------

def save_sequence(xs, ys, path) -> None:
    xs, ys = integer_sample(xs, ys)
    doc = {
        "format": SEQ_FORMAT,
        "examples": [list(ex) for ex in zip(xs.tolist(), ys.tolist())],
    }
    _dump(doc, path)


def load_sequence(path) -> tuple:
    """The sequence file at `path` as int64 arrays (xs, ys)."""
    pairs = read_json_object(path, SEQ_FORMAT, lists=("examples",))["examples"]
    if not all(isinstance(ex, list) and len(ex) == 2 for ex in pairs):
        raise ValueError(f"{path}: key 'examples' must list [x, y] pairs")
    return integer_sample([x for x, _ in pairs], [y for _, y in pairs])


# --- certificates ----------------------------------------------------------

def save_certificate(tree: MistakeTree, path, params: dict | None = None) -> None:
    doc = {"format": CERT_FORMAT, "params": params or {}}
    doc.update(tree_to_dict(tree))
    _dump(doc, path)


# a JSON string (skipped whole) or a bracket
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[\[\]{}]')


def _nesting_depth(text: str) -> int:
    """Deepest bracket nesting of a JSON text, found without recursion."""
    depth = deepest = 0
    for tok in _JSON_TOKEN.finditer(text):
        c = tok.group()
        if c in ("[", "{"):
            depth += 1
            deepest = max(deepest, depth)
        elif c in ("]", "}"):
            depth -= 1
    return deepest


def load_certificate(path) -> MistakeTree:
    """A certificate tree; ValueError if it nests past the recursion limit.

    Both the JSON decoder and the tree decoder recurse once per level.
    """
    try:
        return tree_from_dict(read_json_object(path, CERT_FORMAT))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed certificate: {exc!r}") from None
    except RecursionError:
        depth = _nesting_depth(Path(path).read_text())
    raise ValueError(f"{path}: certificate nests {depth} levels deep, past "
                     f"the recursion limit {sys.getrecursionlimit()}")


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
    doc = read_json_object(path, FAMILY_FORMAT, lists=("points", "functions"))
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
