"""Versioned JSON file formats: classes, sequences, certificates, families.

A class file carries `kind` ("multiclass" with K, or "real" with its value
grid), `domain_size` and `rows`; a sequence file carries `examples`, the
[x, y] pairs of an (xs, ys) sample; a certificate file carries `params`,
the tree's `kind` and its heap-order lists (`trees.tree_to_dict`).  All
writers emit keys in a fixed order at full float precision, so identical
inputs produce byte-identical files.  Class and certificate files are
written on one line; an indented one still loads, as JSON ignores
whitespace.  A one-line multiclass class file with one-digit labels, the
layout `save_class` writes for K <= 9, is read in place at fixed stride
(`_one_line_rows`), without `json`'s Python object per label: the
thresholds-cb16 benchmark's 65,536 x 16 file loads in about 25 ms instead
of 0.13-0.18 s on a 2-vCPU host.  A label of two or more digits, or an
indented, reordered or real class file, goes through `json`, and the class
is the same either way.  Likewise a one-line multiclass certificate file,
the layout `save_certificate` writes, has its header parsed alone and its
list bodies checked byte by byte, then parsed by numpy (`_one_line_tree`):
the benchmark's 65,535-node certificate loads in about 7 ms instead of
21 ms.  Any other certificate goes through `json`, to the same tree.
A malformed document is a ValueError naming the file and the key.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .classes import (GRID_RULE, HypothesisClass, RealFunctionClass,
                      integer_sample, is_grid)
from .thresholds import ThresholdFamily
from .trees import MistakeTree, tree_from_dict, tree_to_dict

CLASS_FORMAT = "classfile/1"
SEQ_FORMAT = "seqfile/1"
CERT_FORMAT = "certfile/2"
FAMILY_FORMAT = "familyfile/1"


def _dump(doc: dict, path, indent: int | None = 2) -> None:
    Path(path).write_text(json.dumps(doc, indent=indent) + "\n")


def read_json_object(path, expected: str | None = None, lists=(),
                     text: str | bytes | None = None) -> dict:
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
    # one line: json's C encoder runs only without indentation
    _dump({"format": CLASS_FORMAT, **kind, "domain_size": cls.domain_size,
           "rows": cls.table.tolist()}, path, indent=None)


def _one_line_head(data: bytes, key: bytes, tail: bytes, keys: list,
                   fmt: str):
    """(header, body start, body end) of a one-line multiclass file of
    format `fmt`, or None.  `data`, less JSON's trailing whitespace, must
    end in `tail`, and its text before the first `key` must parse on its
    own to a header of `keys`, in that order, whose kind is "multiclass".
    The body runs from `key` to `tail`."""
    end = len(data)
    while end and data[end - 1] in b" \t\n\r":    # JSON's whitespace only
        end -= 1
    if not data.endswith(tail, 0, end):
        return None
    try:
        cut = data.index(key)
        # "}" closes the header only if the cut is a key of the top object,
        # and JSON ending in "}" is an object
        head = json.loads(data[:cut].decode() + "}")
    except (ValueError, RecursionError):   # no such key, or no such header
        return None
    if list(head) != keys or head["format"] != fmt or head["kind"] != "multiclass":
        return None
    return head, cut + len(key), end - len(tail)


_ROWS_KEY = b', "rows": [['
_CLASS_HEAD_KEYS = ["format", "kind", "K", "domain_size"]
_ROW_GAP = b"], ["


def _one_line_rows(data: bytes):
    """(K, int64 table) of a multiclass class file in the one-line layout
    `save_class` writes, with one-digit labels, or None.

    Never raises, and returns only what the json route would build.  The
    header must parse on its own to `save_class`'s four keys in its order.
    With w = `domain_size`, row r's label j sits at byte r*(3w+2) + 3j of
    the rows body, then ", " or, after a row's last label, "], [".  Each
    byte is checked in place at its position: a label must be a digit in
    1..K, so one of two or more digits sends the file to `json`.  A
    65,536 x 16 file takes about 4 ms, 30 ms before this reader (2-vCPU).
    """
    found = _one_line_head(data, _ROWS_KEY, b"]]}", _CLASS_HEAD_KEYS,
                           CLASS_FORMAT)
    if found is None:
        return None
    head, start, end = found
    K, width = head["K"], head["domain_size"]
    if type(K) is not int or type(width) is not int or width < 1:
        return None
    gap, stride = len(_ROW_GAP), 3 * width + 2   # a row and a gap
    rows, extra = divmod(end - start + gap, stride)
    if extra or rows < 1:
        return None
    # read-only views of the body, which numpy checks lie inside `data`
    cells = np.ndarray((rows, stride - gap), np.uint8, data, start, (stride, 1))
    gaps = np.ndarray((rows - 1, gap), np.uint8, data, start + stride - gap,
                      (stride, 1))
    digits = cells[:, ::3]
    # a K below 1 is refused with the labels, which must be at least 1
    if not ((cells[:, 1::3] == ord(",")).all()
            and (cells[:, 2::3] == ord(" ")).all()
            and gaps.tobytes() == _ROW_GAP * (rows - 1)
            and digits.min() >= ord("1")
            and digits.max() <= ord("0") + min(K, 9)):
        return None
    labels = digits.astype(np.int64)
    labels -= ord("0")
    return K, labels


def load_class(path):
    """The class file at `path`.  A one-line multiclass file, the layout
    `save_class` writes, is read by `_one_line_rows`; any other file, and
    every malformed one, is parsed by `json`.  Both routes end in the same
    constructor, and its ValueError names the file and the key."""
    data = Path(path).read_bytes()
    fast = _one_line_rows(data)
    kind, param, rows = (("multiclass", *fast) if fast is not None
                         else _parse_class(path, data))
    del data    # no route's rows view the bytes: drop them before the peak
    try:
        if kind == "multiclass":
            return HypothesisClass(param, rows)
        return RealFunctionClass(rows, grid=param)
    except ValueError as exc:
        raise ValueError(f"{path}: key 'rows': {exc}") from None


def _parse_class(path, data: bytes) -> tuple:
    """(kind, K or grid, rows) of the class file `data` read from `path`,
    through `json`."""
    # JSON booleans would load as 0 or 1.  Both literals hold an "e" and the
    # rows open at or after the first "[", so only an "e" past it (a real
    # class may hold 1e-05) calls for the per-value check.
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    may_hold_bool = text.find("e", text.find("[")) != -1
    doc = read_json_object(path, CLASS_FORMAT, lists=("rows",), text=text)
    del text    # kept, the file's text would add to the peak memory
    kind = doc.get("kind")
    rows, width = doc["rows"], doc.get("domain_size")
    if (type(width) is not int or not rows or set(map(type, rows)) != {list}
            or set(map(len, rows)) != {width}):
        raise ValueError(f"{path}: key 'rows' must list rows of "
                         f"domain_size = {width!r} values")
    if may_hold_bool and any(type(v) is bool for r in rows for v in r):
        raise ValueError(f"{path}: key 'rows' must list numbers, found a boolean")
    if kind == "multiclass":
        K = doc.get("K")
        if not isinstance(K, int) or isinstance(K, bool) or K < 1:
            raise ValueError(f"{path}: key 'K' must be an integer >= 1, "
                             f"found {K!r}")
        return kind, K, rows
    if kind == "real":
        grid = doc.get("grid")
        if grid is not None and not is_grid(grid):
            raise ValueError(f"{path}: key 'grid' must be {GRID_RULE} "
                             f"or null, found {grid!r}")
        table = np.asarray(rows, dtype=np.float64)
        if grid is not None:
            # values must sit on the declared decimal grid
            steps = (table + 1.0) / float(grid)
            if not np.allclose(steps, np.round(steps), atol=1e-9):
                raise ValueError(f"{path}: values stray from the declared grid")
        return kind, grid, table
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


_X_KEY = b', "x": ['
_CERT_HEAD_KEYS = ["format", "params", "kind"]
_LABEL_KEYS = (b'], "left_label": [', b'], "right_label": [')
# every byte of a list body as "0" (a digit), "," or " ", else "#"
_SHAPE = bytes(ord("0") if b in b"0123456789" else b if b in b", " else ord("#")
               for b in range(256))


def _int_list(body: bytes):
    """The int64 array of the JSON list body `body`, if it is non-negative
    integers below 10^17 without leading zeros, each after the first after
    ", "; else None.  The bytes are checked before numpy parses them, as
    `np.fromstring` reads "1, , 2" as [1, 0, 2] and stops at "1 2" with a
    warning or an error, by numpy version."""
    shape = body.translate(_SHAPE)
    gaps = shape.count(b",")
    if (not shape.startswith(b"0") or b"#" in shape
            # each comma starts ", " and a value; there are no other spaces
            or shape.count(b", 0") != gaps or shape.count(b" ") != gaps
            or body[0] == ord("0") and shape[1:2] == b"0"
            or b" 0" in body and (body.count(b" 0") != body.count(b" 0,")
                                  + body.endswith(b" 0"))):
        return None
    values = np.fromstring(body, np.int64, sep=",")
    # parsing saturates at 2^63 - 1, so the bound refuses every longer value
    if len(values) != gaps + 1 or values.max() >= 10**17:
        return None
    return values


def _one_line_tree(data: bytes):
    """The multiclass tree of a certificate file in the one-line layout
    `save_certificate` writes, or None.

    Never raises, and returns only what the json route would build.  The
    header must parse on its own to `save_certificate`'s three keys in its
    order, of a multiclass tree; then come the `x`, `left_label` and
    `right_label` bodies, each read by `_int_list`, of one length 2^h - 1.
    The thresholds-cb16 benchmark's 65,535-node file takes about 7 ms,
    21 ms through `json` (2-vCPU).
    """
    found = _one_line_head(data, _X_KEY, b"]}", _CERT_HEAD_KEYS, CERT_FORMAT)
    if found is None:
        return None
    _, start, end = found
    bodies = []
    for key in _LABEL_KEYS:
        stop = data.find(key, start, end)
        if stop < 0:
            return None
        bodies.append(data[start:stop])
        start = stop + len(key)
    bodies.append(data[start:end])
    lists = [_int_list(body) for body in bodies]
    if any(values is None for values in lists):
        return None
    n = len(lists[0])
    if n & (n + 1) or {len(values) for values in lists} != {n}:
        return None
    return MistakeTree(*lists)


def load_certificate(path) -> MistakeTree:
    """A certificate tree.  A one-line multiclass file, the layout
    `save_certificate` writes, is read by `_one_line_tree`; any other
    file, and every malformed one, is parsed by `json`, where a list of the
    wrong length or type is a ValueError."""
    data = Path(path).read_bytes()
    tree = _one_line_tree(data)
    if tree is not None:
        return tree
    doc = read_json_object(path, CERT_FORMAT, lists=("x",), text=data)
    del data    # as in `load_class`: the bytes need not outlive the parse
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
    """A threshold family.  `points` must list domain indices, `functions`
    rows of labels (of numbers, for regression) defined at every point,
    `labels` and `bounds` pairs or null (the kind's pair is null only in an
    empty family), and `gap`, `margin` and `band` numbers or null.  No
    number may be NaN or infinite."""
    doc = read_json_object(path, FAMILY_FORMAT, lists=("points", "functions"))
    kind, points = doc.get("kind"), doc["points"]

    def need(ok, key, what):
        if not ok:
            raise ValueError(f"{path}: key {key!r} must {what}")

    need(kind in ("multiclass", "regression"), "kind",
         f"be 'multiclass' or 'regression', found {kind!r}")
    need(all(type(x) is int and x >= 0 for x in points), "points",
         "list domain indices")
    ints, numbers = {int}, {int, float}
    width = max(points, default=-1) + 1
    need(all(isinstance(f, list) and len(f) >= width and set(map(type, f))
             <= (ints if kind == "multiclass" else numbers)
             for f in doc["functions"]), "functions",
         "list rows of values (integers for multiclass) defined at every point")
    own = "labels" if kind == "multiclass" else "bounds"
    for key, types, what in (("labels", ints, "integers"),
                             ("bounds", numbers, "numbers")):
        v, optional = doc.get(key), not (key == own and points)
        need(v is None and optional or isinstance(v, list) and len(v) == 2
             and set(map(type, v)) <= types, key,
             f"be a pair of {what}{' or null' * optional}, found {v!r}")
    for key in ("gap", "margin", "band"):
        need(type(doc.get(key)) in (type(None), int, float), key,
             f"be a number or null, found {doc.get(key)!r}")

    def finite(v):   # a number, null, or a list of them or of such lists
        if isinstance(v, list):
            return all(map(finite, v))
        return type(v) is not float or math.isfinite(v)

    for key in ("functions", "bounds", "gap", "margin", "band"):
        need(finite(doc.get(key)), key, "hold no NaN or infinity")
    return ThresholdFamily(
        kind=kind, points=points, functions=[tuple(f) for f in doc["functions"]],
        labels=tuple(doc["labels"]) if doc.get("labels") else None,
        gap=doc.get("gap"),
        bounds=tuple(doc["bounds"]) if doc.get("bounds") else None,
        margin=doc.get("margin"), band=doc.get("band"))
