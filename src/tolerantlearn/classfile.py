"""Versioned JSON file formats: classes, sequences, certificates, families.

A class file carries `kind` ("multiclass" with K, or "real" with its value
grid), `domain_size` and `rows`; a sequence file carries `examples`, the
[x, y] pairs of an (xs, ys) sample; a certificate file carries `params`,
the tree's `kind` and its heap-order lists (`trees.tree_to_dict`).  All
writers emit keys in a fixed order at full float precision, so identical
inputs produce byte-identical files.
A malformed document is a ValueError naming the file and the key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .classes import HypothesisClass, RealFunctionClass, integer_sample
from .thresholds import ThresholdFamily
from .trees import MistakeTree, tree_from_dict, tree_to_dict

CLASS_FORMAT = "classfile/1"
SEQ_FORMAT = "seqfile/1"
CERT_FORMAT = "certfile/2"
FAMILY_FORMAT = "familyfile/1"


def _dump(doc: dict, path, indent: int | None = 2) -> None:
    Path(path).write_text(json.dumps(doc, indent=indent) + "\n")


def read_json_object(path, expected: str | None = None, lists=(),
                     text: str | None = None) -> dict:
    """The JSON object at `path` (parsed from `text` if the caller has read
    the file), of format `expected` unless that is None, whose keys `lists`
    hold JSON lists."""
    try:
        doc = json.loads(Path(path).read_bytes() if text is None else text)
    except RecursionError:   # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nests deeper than the recursion "
                         f"limit {sys.getrecursionlimit()}") from None
    except ValueError as e:   # bytes that are not UTF-8, or not JSON
        raise ValueError(f"{path}: {e}") from None
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
    # JSON booleans would load as 0 or 1.  Both literals hold an "e" and the
    # rows open at or after the first "[", so only an "e" past it (a real
    # class may hold 1e-05) calls for the per-value check.
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    may_hold_bool = text.find("e", text.find("[")) != -1
    doc = read_json_object(path, CLASS_FORMAT, lists=("rows",), text=text)
    del text    # kept, the file's text would add to the peak memory
    kind = doc.get("kind")
    rows, width = doc["rows"], doc.get("domain_size")
    if not rows or any(not isinstance(r, list) or len(r) != width for r in rows):
        raise ValueError(f"{path}: key 'rows' must list rows of "
                         f"domain_size = {width!r} values")
    if may_hold_bool and any(type(v) is bool for r in rows for v in r):
        raise ValueError(f"{path}: key 'rows' must list numbers, found a boolean")
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
    try:
        return integer_sample([x for x, _ in pairs], [y for _, y in pairs])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- certificates ----------------------------------------------------------

def save_certificate(tree: MistakeTree, path, params: dict | None = None) -> None:
    # one line: an indented list puts each of its 2^height - 1 entries on a line
    _dump({"format": CERT_FORMAT, "params": params or {}, **tree_to_dict(tree)},
          path, indent=None)


def load_certificate(path) -> MistakeTree:
    """A certificate tree; a list of the wrong length or type is a ValueError."""
    doc = read_json_object(path, CERT_FORMAT, lists=("x",))
    try:
        return tree_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
