import contextlib
import hashlib
import inspect
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from tolerantlearn import classfile
from tolerantlearn.classes import HypothesisClass, RealFunctionClass
from tolerantlearn.cli import HANDLERS, build_parser, float_list, main
from tolerantlearn.dimensions import ldim_tau
from tolerantlearn.generators import (complete_binary, constants_class,
                                      random_multiclass, random_real,
                                      threshold_class)
from tolerantlearn.privacy import MAX_BATCHES, batch_count, stability_eta
from tolerantlearn.thresholds import ThresholdFamily, verify_thresholds
from tolerantlearn.trees import (MistakeTree, complete_binary_certificate,
                                 threshold_class_certificate, tree_to_dict)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def thr_file(tmp_path):
    path = tmp_path / "thr.json"
    classfile.save_class(threshold_class(4), path)
    return path


# --- file formats ------------------------------------------------------------

@st.composite
def generated_classes(draw):
    """A class from one of the generators, a real one possibly off-grid;
    a multiclass one may have labels of one digit or of two."""
    rows, points, seed = (draw(st.integers(1, 12)), draw(st.integers(1, 6)),
                          draw(st.integers(0, 99)))
    family = draw(st.sampled_from(["multiclass", "real", "threshold",
                                   "constants"]))
    if family == "multiclass":
        return random_multiclass(rows, points, draw(st.integers(2, 12)), seed)
    if family == "threshold":
        return threshold_class(points)
    if family == "constants":
        return constants_class(draw(st.integers(2, 12)), points)
    cls = random_real(rows, points, draw(st.sampled_from([0.1, 0.25, 0.5, 2.0])),
                      seed)
    return RealFunctionClass(cls.table) if draw(st.booleans()) else cls


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(generated_classes())
def test_class_file_round_trip(tmp_path, cls):
    path, indented = tmp_path / "c.json", tmp_path / "indented.json"
    classfile.save_class(cls, path)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")   # one line
    indented.write_text(json.dumps(json.loads(text), indent=2))
    # a multiclass file takes the one-line reader iff its labels are one
    # digit each, the indented copy json
    assert (classfile._one_line_rows(path.read_bytes()) is not None) == (
        isinstance(cls, HypothesisClass) and cls.table.max() < 10)
    assert classfile._one_line_rows(indented.read_bytes()) is None
    for back in (classfile.load_class(path), classfile.load_class(indented)):
        assert type(back) is type(cls)
        if isinstance(cls, HypothesisClass):
            assert back.K == cls.K
        else:
            assert back.grid == cls.grid
        assert back.table.dtype == cls.table.dtype
        assert np.array_equal(back.table, cls.table)
        assert np.array_equal(back.row_map, np.arange(cls.num_rows))


def class_outcome(path):
    """What `load_class` makes of `path`: the class's parts, or its error."""
    try:
        cls = classfile.load_class(path)
    except ValueError as exc:
        return str(exc)
    return (type(cls), getattr(cls, "K", None), getattr(cls, "grid", None),
            cls.table.dtype, cls.table.shape, cls.table.tobytes(),
            cls.row_map.tobytes())


HUGE = [b"%d" % v for v in (2**63, 10**19, 2**64, 10**20)]
LABEL = rb"[^\[\],\s}]+"    # a value between separators


def _edit(doc, pick, pattern, edit):
    """`doc` with `edit` applied to one match of `pattern` in its rows."""
    rows = doc.index(b'"rows": ') + len(b'"rows": ')
    spans = [m.span() for m in re.finditer(pattern, doc[rows:])]
    if not spans:
        return doc
    i, j = (rows + k for k in pick(spans))
    return doc[:i] + edit(doc[i:j]) + doc[j:]


def _value(doc, key, edit):
    """`doc` with `edit` applied to the header value of `key`."""
    m = re.search(rb'"%s": ([^,]+)' % key, doc)
    return doc if m is None else doc[:m.start(1)] + edit(m[1]) + doc[m.end(1):]


def _rows(doc, rows):
    return doc[:doc.index(b'"rows": ')] + b'"rows": ' + rows + b"}"


def _label(edit):
    return lambda doc, pick: _edit(doc, pick, LABEL, lambda v: edit(v, pick))


def _separator(*options):
    return lambda doc, pick: _edit(doc, pick, rb"(?<=[^\]]), (?=[^\[])",
                                   lambda v: pick(options))


# Byte-level edits of a one-line class file, each a function of the file
# and `pick`, which draws one item of a list.
MUTATIONS = {
    "none": lambda doc, pick: doc,
    "leading-zero": _label(lambda v, pick: b"0" + v),
    "plus": _label(lambda v, pick: b"+" + v),
    "empty-label": _label(lambda v, pick: b""),
    "label": _label(lambda v, pick: pick(
        [b"0", b"7", b"true", b"NaN", b"1.0", b"-1", b"1e0"])),
    "extra-label": _label(lambda v, pick: v + b", " + v),
    "drop-label": lambda doc, pick: _edit(doc, pick, b", " + LABEL,
                                          lambda v: b""),
    "huge-label": _label(lambda v, pick: pick(HUGE)),
    "huge-K": lambda doc, pick: _value(
        _label(lambda v, pick: pick(HUGE))(doc, pick), b"K",
        lambda v: b"%d" % 2**64),
    "space": _separator(b" "),
    "double-comma": _separator(b",,"),
    "separator": _separator(b",", b", , ", b" , ", b",\n"),
    "row-separator": lambda doc, pick: _edit(
        doc, pick, rb"\], \[", lambda v: pick(
            [b"],[", b"], [], [", b"]; [", b"]]", b"], [[", b"], 1, ["])),
    "rows": lambda doc, pick: pick(
        [_rows(doc, b"[[1]]"), _rows(doc, b"[]"), _rows(doc, b"[1]"),
         _rows(_value(doc, b"domain_size", lambda v: b"1"), b"[[]]")]),
    "end": lambda doc, pick: doc.rstrip() + pick(
        [b"x", b" 1", b"}", b"\n\n", b" \t\r\n", b"\x0c", b""]),
    "close": lambda doc, pick: doc.rstrip()[:-1] + pick([b"]", b" ", b"1", b""]),
    "K": lambda doc, pick: _value(doc, b"K", lambda v: pick(
        [v + b".0", b"true", b"0", b"-1", b'"%s"' % v, b"NaN",
         b"9223372036854775807"])),
    "domain_size": lambda doc, pick: _value(doc, b"domain_size", lambda v: pick(
        [b"-1", b"true", b"0", b"-2", b'"%s"' % v, v + b".0"])),
    "format-kind": lambda doc, pick: _value(*pick(
        [(doc, b"format", lambda v: pick([b'"classfile/2"', b"1"])),
         (doc, b"kind", lambda v: pick([b'"real"', b"null"]))])),
    "drop-key": lambda doc, pick: re.sub(
        rb'"%s": [^,]+, ' % pick([b"format", b"kind", b"K", b"domain_size"]),
        b"", doc, count=1),
    "duplicate-key": lambda doc, pick: pick([
        doc.replace(b', "rows"', b', "K": 3, "rows"', 1),
        b'{"K": 3, ' + doc[1:],
        doc.rstrip()[:-1] + b', "rows": [[1]]}',
        doc.replace(b', "rows"', b', "domain_size": 1, "rows"', 1)]),
    "key-order": lambda doc, pick: pick([
        re.sub(rb'(, "domain_size": \d+)(, "rows": .*)\}', rb"\2\1}", doc),
        doc.replace(b'"format"', b'"grid": null, "format"', 1),
        doc.replace(b', "kind"', b', "rows": [[1]], "kind"', 1),
        doc.replace(b'"multiclass"', b'"multiclass, \\"rows\\": [["', 1)]),
    "layout": lambda doc, pick: pick([
        json.dumps(json.loads(doc), indent=2).encode(),
        b"\xef\xbb\xbf" + doc, doc.replace(b"classfile", b"cl\xffssfile", 1),
        b'{"deep": ' + b"[" * 100_000 + b"]" * 100_000 + b", " + doc[1:]]),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cls=generated_classes(), data=st.data())
def test_one_line_reader_matches_json_route(tmp_path, mutation, cls, data):
    # the one-line reader may decline a file, but whatever it returns the
    # json route returns too, and the json route makes every error
    def pick(options):   # the ends of a list come up as often as its middle
        n = len(options)
        return options[data.draw(st.sampled_from([0, n - 1])
                                 | st.integers(0, n - 1))]

    path = tmp_path / "c.json"
    classfile.save_class(cls, path)
    path.write_bytes(MUTATIONS[mutation](path.read_bytes(), pick))
    fast = class_outcome(path)
    with mock.patch.object(classfile, "_one_line_rows", lambda data: None):
        assert fast == class_outcome(path)


@pytest.mark.parametrize("K", [0, 9, 12])
@pytest.mark.parametrize("rows", [[[1]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]])
def test_one_line_reader_checks_every_body_byte(tmp_path, K, rows):
    # each byte of the rows body replaced in turn, by a digit, a separator's
    # byte or a byte next to the digits: the one-line reader declines the
    # file or builds what json builds, error for error
    path = tmp_path / "c.json"
    classfile.save_class(HypothesisClass(9, rows), path)
    doc = path.read_bytes().replace(b'"K": 9', b'"K": %d' % K)
    start, end = doc.index(b"[[") + 2, doc.rindex(b"]]}")
    for i in range(start, end):
        for byte in (b"0", b"1", b"9", b",", b" ", b"]", b"[", b";", b"/",
                     b":", b"A", b"\xff"):
            path.write_bytes(doc[:i] + byte + doc[i + 1:])
            fast = class_outcome(path)
            with mock.patch.object(classfile, "_one_line_rows",
                                   lambda data: None):
                assert fast == class_outcome(path), (i, byte)


def test_class_file_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope/9"}))
    with pytest.raises(ValueError):
        classfile.load_class(path)


def test_real_file_grid_validation(tmp_path):
    path = tmp_path / "r.json"
    doc = {"format": "classfile/1", "kind": "real", "grid": 0.5,
           "domain_size": 1, "rows": [[0.3]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        classfile.load_class(path)


def test_sequence_round_trip(tmp_path):
    path = tmp_path / "s.json"
    classfile.save_sequence([0, 2], [1, 2], path)
    xs, ys = classfile.load_sequence(path)
    assert (xs.tolist(), ys.tolist()) == ([0, 2], [1, 2])


int64s = st.integers(-2**63, 2**63 - 1)
no_fixture_check = settings(max_examples=100, deadline=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


@no_fixture_check
@given(st.lists(st.tuples(int64s, int64s), max_size=20))
def test_sequence_round_trip_property(tmp_path, pairs):
    xs = np.array([x for x, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    path = tmp_path / "s.json"
    classfile.save_sequence(xs, ys, path)
    back_xs, back_ys = classfile.load_sequence(path)
    assert back_xs.dtype == back_ys.dtype == np.int64
    assert (back_xs.tolist(), back_ys.tolist()) == (xs.tolist(), ys.tolist())


@no_fixture_check
@given(st.lists(st.tuples(int64s, int64s), min_size=1, max_size=8), st.data(),
       st.one_of(st.floats().filter(lambda v: not float(v).is_integer()),
                 st.text(), st.none()))
def test_non_integral_sequence_entries_rejected(tmp_path, pairs, data, bad):
    i = data.draw(st.integers(0, len(pairs) - 1))
    col = data.draw(st.integers(0, 1))
    rows = [list(p) for p in pairs]
    rows[i][col] = bad
    xs, ys = [r[0] for r in rows], [r[1] for r in rows]
    with pytest.raises(ValueError, match="not a pair of integers"):
        classfile.save_sequence(xs, ys, tmp_path / "never.json")
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"format": classfile.SEQ_FORMAT,
                                "examples": rows}))
    with pytest.raises(ValueError, match="not a pair of integers"):
        classfile.load_sequence(path)


def test_certificate_round_trip(tmp_path):
    cert = threshold_class_certificate(4)
    path = tmp_path / "cert.json"
    classfile.save_certificate(cert, path, params={"tau": 0})
    back = classfile.load_certificate(path)
    assert back.height == cert.height
    assert tree_to_dict(back) == tree_to_dict(cert)


@st.composite
def heap_trees(draw, values=int64s):
    """A real or multiclass tree whose instances and edge labels are drawn
    by `values`."""
    n = 2 ** draw(st.integers(0, 6)) - 1
    x = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):
        return MistakeTree(x, witness=draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n)))
    labels = st.lists(values, min_size=n, max_size=n)
    return MistakeTree(x, draw(labels), draw(labels))


@no_fixture_check
@given(heap_trees(), st.dictionaries(st.sampled_from(["tau", "gamma"]),
                                     st.integers(0, 9)))
def test_certificate_round_trip_property(tmp_path, tree, params):
    path = tmp_path / "cert.json"
    classfile.save_certificate(tree, path, params=params)
    back = classfile.load_certificate(path)
    assert back.kind == tree.kind and back.height == tree.height
    for f in tree.fields:
        assert getattr(back, f).dtype == getattr(tree, f).dtype
        assert np.array_equal(getattr(back, f), getattr(tree, f))
    assert json.loads(path.read_text())["params"] == params


# Tokens an edit writes into a certificate file: JSON of every type, numbers
# past 64 bits or past a float, literals json reads though JSON has none,
# and bytes that break the syntax or the encoding.
CERT_TOKENS = [b"0", b"-1", b"2.5", b"1e400", b"-1e400", b"NaN", b"Infinity",
               b"18446744073709551616", b"1" + b"0" * 400, b"true", b"null",
               b'"x"', b'"real"', b'"multiclass"', b"[]", b"[1]", b"[[0]]",
               b"{}", b"[", b"]", b"{", b"}", b",", b":", b'"', b" ", b"\xff"]
CERT_VALUE = rb'-?[0-9][0-9.eE+-]*|"[^"]*"|true|false|null|NaN|\[\]|\{\}'


def _cert_edits(doc, data):
    """`doc` with one byte-level edit drawn by `data`."""
    token = data.draw(st.sampled_from(CERT_TOKENS))
    at = data.draw(st.integers(0, len(doc)))
    end = data.draw(st.integers(at, min(at + 3, len(doc))))
    values = [m.span() for m in re.finditer(CERT_VALUE, doc)]
    i, j = data.draw(st.sampled_from(values))
    key = data.draw(st.sampled_from([b"format", b"params", b"kind", b"x",
                                     b"left_label", b"right_label", b"witness"]))
    return data.draw(st.sampled_from([
        doc,                                       # no edit
        doc[:i] + token + doc[j:],                 # one value replaced
        doc[:at] + token + doc[at:],               # a token inserted
        doc[:at] + doc[end:],                      # up to 3 bytes dropped
        doc[:at],                                  # the file cut short
        re.sub(rb'"%s": ' % key, b'"dropped": ', doc, count=1),
        doc.rstrip()[:-1] + b', "%s": ' % key + token + b"}",   # a duplicate
    ]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=heap_trees(), data=st.data())
def test_edited_certificate_loads_as_json_reads_or_exits_2(tmp_path, thr_file,
                                                          tree, data):
    # an edited certificate file loads to the arrays json reads from it, or
    # is a ValueError naming the file, which `thresholds` turns into exit 2
    path = tmp_path / "cert.json"
    classfile.save_certificate(tree, path, params={"tau": 0})
    path.write_bytes(_cert_edits(path.read_bytes(), data))
    try:
        back = classfile.load_certificate(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        event("refused")
        if data.draw(st.integers(0, 9)) == 0:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("thresholds", "--input", thr_file,
                               "--certificate", path, "--out",
                               tmp_path / "fam.json")
            assert code == 2 and f"{path}: " in err.getvalue()
        return
    event(f"loaded a {back.kind} tree")
    doc = json.loads(path.read_bytes())
    assert back.kind == doc["kind"]
    for f in back.fields:
        got = getattr(back, f).tolist()
        if f == "witness":   # NaN and Infinity are numbers to json
            assert json.dumps(got) == json.dumps([float(v) for v in doc[f]])
        else:
            assert got == doc[f]


def cert_routes(path):
    """What `load_certificate` makes of `path` with its one-line reader and
    through json alone: each the tree's arrays, or its error."""
    def outcome():
        try:
            tree = classfile.load_certificate(path)
        except ValueError as exc:
            return str(exc)
        return [(f, getattr(tree, f).dtype, getattr(tree, f).tobytes())
                for f in tree.fields]

    fast = outcome()
    with mock.patch.object(classfile, "_one_line_tree", lambda data: None):
        return fast, outcome()


# What an edit writes in place of one list entry: a value json refuses, one
# the one-line reader leaves to json, or a break in the ", " layout.
LIST_TOKENS = [b"00", b"01", b"-0", b"-1", b"+1", b"1.0", b"2.5", b"1e2",
               b"true", b"false", b"null", b"", b" 1", b"1 ", b"1,", b",1",
               b"1, , 1", b"1,1", b"1 ,1", b"1,  1", b"\t1", b"\xb2",
               b"\xef\xbc\x91", b"99999999999999999", b"100000000000000000",
               b"9223372036854775807", b"9223372036854775808", b"1" * 20]
LIST_ENTRY = rb"(?<=[\[ ])-?[0-9]+(?=[,\]])"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=heap_trees(st.integers(0, 20) | st.integers(0, 10**17 - 1)),
       data=st.data())
def test_one_line_certificate_reader_matches_json_route(tmp_path, tree, data):
    # the one-line reader may decline a file, but whatever it returns the
    # json route returns too, and the json route makes every error
    path = tmp_path / "cert.json"
    classfile.save_certificate(tree, path,
                               params=data.draw(st.sampled_from([{}, {"tau": 0}])))
    doc = path.read_bytes()
    entries = [m.span() for m in re.finditer(LIST_ENTRY, doc)]
    edit = data.draw(st.sampled_from(["none", "entry", "file"]))
    if edit == "entry" and entries:
        i, j = data.draw(st.sampled_from(entries))
        doc = doc[:i] + data.draw(st.sampled_from(LIST_TOKENS)) + doc[j:]
    elif edit == "file":
        doc = _cert_edits(doc, data)
    path.write_bytes(doc)
    event("one line" if classfile._one_line_tree(doc) is not None else "json")
    fast, ref = cert_routes(path)
    assert fast == ref


@pytest.mark.parametrize("x, left, right", [
    ([0], [1], [2]), ([3, 10, 0], [1, 12, 1], [20, 2, 305])])
def test_one_line_certificate_reader_checks_every_body_byte(tmp_path, x, left,
                                                             right):
    # each byte of the list bodies replaced in turn, by a digit, a
    # separator's byte or a byte of another JSON value: the one-line reader
    # declines the file or builds what json builds, error for error
    path = tmp_path / "cert.json"
    classfile.save_certificate(MistakeTree(x, left, right), path)
    doc = path.read_bytes()
    assert classfile._one_line_tree(doc) is not None
    start, end = doc.index(b'"x": [') + len(b'"x": ['), doc.rindex(b"]}")
    for i in range(start, end):
        for byte in (b"0", b"1", b"9", b",", b" ", b"]", b"[", b'"', b"-",
                     b".", b"e", b"\t", b"A", b"\xff"):
            path.write_bytes(doc[:i] + byte + doc[i + 1:])
            fast, ref = cert_routes(path)
            assert fast == ref, (i, byte)


def cert_text(x="0", left="1", right="2"):
    """A one-line multiclass certificate with these list bodies."""
    return ('{"format": "certfile/2", "params": {}, "kind": "multiclass", '
            f'"x": [{x}], "left_label": [{left}], "right_label": [{right}]}}\n')


def test_cert_text_is_the_saved_layout(tmp_path):
    path = tmp_path / "cert.json"
    classfile.save_certificate(MistakeTree([0, 10, 2], [1, 1, 1], [2, 2, 2]),
                               path)
    assert path.read_text() == cert_text("0, 10, 2", "1, 1, 1", "2, 2, 2")


@pytest.mark.parametrize("x, left, right, read_by", [
    ("0, 10, 2", "1, 1, 1", "2, 2, 2", "one line"),
    ("0", "1", "2", "one line"),
    ("7", "1", "2", "one line"),                     # outside most domains
    ("99999999999999999", "1", "2", "one line"),     # 10^17 - 1
    ("01", "1", "2", "Expecting ',' delimiter"),     # leading zeros
    ("0, 1, 02", "1, 1, 1", "2, 2, 2", "Expecting ',' delimiter"),
    ("0", "00", "2", "Expecting ',' delimiter"),
    ("-1", "1", "2", "json"),
    ("0", "1", "-2", "json"),
    ("100000000000000000", "1", "2", "json"),        # 10^17
    ("9223372036854775807", "1", "2", "json"),       # 2^63 - 1
    ("9223372036854775808", "1", "2", "does not fit in 64 bits"),   # 2^63
    ("0", "1", "1" * 20, "does not fit in 64 bits"),
    ("true", "1", "2", "must list numbers of type int"),
    ("0", "1", "false", "must list numbers of type int"),
    ("2.5", "1", "2", "must list numbers of type int"),
    ("0", "1.0", "2", "must list numbers of type int"),
    ("0, 1", "1, 1", "2, 2", "do not make a complete tree"),
    ("0, 1, 1", "1, 1", "2, 2, 2", "1-D of one length"),
    ("0, , 2", "1, 1, 1", "2, 2, 2", "Expecting value"),    # an empty entry
    ("0, 1, 2", "1, 1, 1", ", 2, 2", "Expecting value"),
    ("0, 1, 2,", "1, 1, 1", "2, 2, 2", "cert.json: "),   # worded by Python
    ("0,1, 2", "1, 1, 1", "2, 2, 2", "json"),          # JSON, not the layout
    ("0, 1 , 2", "1, 1, 1", "2, 2, 2", "json"),
    ("0, 1,  2", "1, 1, 1", "2, 2, 2", "json"),
    ("0, 1 2", "1, 1, 1", "2, 2, 2", "Expecting ',' delimiter"),
    ("", "", "", "json"),                            # the empty tree
])
def test_one_line_certificate_reader_cases(tmp_path, x, left, right, read_by):
    # what the one-line reader reads, and what it leaves to json, which
    # loads the file or names its fault
    path = tmp_path / "cert.json"
    path.write_text(cert_text(x, left, right))
    assert ((classfile._one_line_tree(path.read_bytes()) is not None)
            == (read_by == "one line"))
    fast, ref = cert_routes(path)
    assert fast == ref
    if read_by in ("one line", "json"):
        assert not isinstance(fast, str), fast
    else:
        assert isinstance(fast, str) and read_by in fast


def test_certificate_reader_leaves_other_layouts_to_json(tmp_path):
    path = tmp_path / "cert.json"
    tree = MistakeTree([0, 1, 1], [1, 1, 1], [2, 3, 2])
    classfile.save_certificate(tree, path, params={"tau": 0})
    doc = json.loads(path.read_text())
    keys = ["format", "params", "kind", "x", "right_label", "left_label"]
    layouts = [json.dumps(doc, indent=2), json.dumps(doc, separators=(",", ":")),
               json.dumps({k: doc[k] for k in keys}),
               json.dumps({k: doc[k] for k in ["kind", *keys[:2], *keys[3:]]})]
    for text in layouts:
        path.write_text(text)
        assert classfile._one_line_tree(path.read_bytes()) is None
        assert tree_to_dict(classfile.load_certificate(path)) == tree_to_dict(tree)
    real = MistakeTree([0, 1, 1], witness=[0.5, 0.0, 1.0])
    classfile.save_certificate(real, path)
    assert classfile._one_line_tree(path.read_bytes()) is None
    assert tree_to_dict(classfile.load_certificate(path)) == tree_to_dict(real)


@pytest.mark.parametrize("x", ["-1", "7"])
def test_certificate_instance_outside_domain_exits_2(tmp_path, thr_file,
                                                      capsys, x):
    # a negative instance loads through json and one past the domain on
    # one line; `thresholds` names either when it checks the tree
    path = tmp_path / "cert.json"
    path.write_text(cert_text(x))
    assert classfile.load_certificate(path).x.tolist() == [int(x)]
    assert run_cli("thresholds", "--input", thr_file, "--certificate", path,
                   "--out", tmp_path / "fam.json") == 2
    assert f"instance {x} outside the domain" in capsys.readouterr().err


def test_certificate_of_another_class_exits_2(tmp_path, capsys):
    # the tree is checked once, before the first refinement step
    classfile.save_class(threshold_class(12), tmp_path / "thr12.json")
    classfile.save_certificate(complete_binary_certificate(12), tmp_path / "cb.cert.json")
    assert run_cli("thresholds", "--input", tmp_path / "thr12.json", "--certificate",
                   tmp_path / "cb.cert.json", "--out", tmp_path / "fam.json") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: thresholds: input tree is not shattered at tolerance 0: ")
    assert not (tmp_path / "fam.json").exists()


@st.composite
def families(draw):
    kind = draw(st.sampled_from(["multiclass", "regression"]))
    width = draw(st.integers(1, 5))
    n = draw(st.integers(0, 4))
    value = int64s if kind == "multiclass" else st.floats(allow_nan=False,
                                                          allow_infinity=False)
    points = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    functions = draw(st.lists(st.tuples(*[value] * width), min_size=n,
                              max_size=n))
    pair = draw(st.tuples(value, value)) if n else None
    scalar = st.none() | st.floats(0, 1)
    if kind == "multiclass":
        return ThresholdFamily(kind, points, functions, labels=pair,
                               gap=draw(st.none() | st.integers(0, 9)))
    return ThresholdFamily(kind, points, functions, bounds=pair,
                           margin=draw(scalar), band=draw(scalar))


@no_fixture_check
@given(families())
def test_family_file_round_trip_property(tmp_path, fam):
    path = tmp_path / "fam.json"
    classfile.save_family(fam, path)
    assert classfile.load_family(path) == fam


NAN, INF = float("nan"), float("inf")
FAMILY = {"format": classfile.FAMILY_FORMAT, "kind": "multiclass",
          "points": [0, 1], "functions": [[1, 1], [2, 1]], "labels": [1, 2],
          "gap": 0, "bounds": None, "margin": None, "band": None}


def test_family_file_missing_optional_keys_read_as_null(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({k: v for k, v in FAMILY.items()
                                if k not in ("gap", "margin", "band")}))
    fam = classfile.load_family(path)
    assert (fam.gap, fam.margin, fam.band) == (None, None, None)
    assert verify_thresholds(fam).ok


@pytest.mark.parametrize("change, message", [
    ({"points": [1.5, True]}, "'points' must list domain indices"),
    ({"points": [0, True]}, "'points' must list domain indices"),
    ({"points": [-1, 0]}, "'points' must list domain indices"),
    ({"points": 5}, "'points' must be a list, found int"),
    ({"kind": ...}, "'kind' must be 'multiclass' or 'regression', found None"),
    ({"kind": "binary"}, "found 'binary'"),
    ({"functions": [5]}, "'functions' must list rows of values"),
    ({"functions": [[1], [2, 1]]}, "defined at every point"),
    ({"functions": [[1, 1.5], [2, 1]]}, "(integers for multiclass)"),
    ({"functions": [[1, True], [2, 1]]}, "'functions' must list rows"),
    ({"labels": None}, "'labels' must be a pair of integers, found None"),
    ({"labels": [1, 2, 3]}, "'labels' must be a pair of integers"),
    ({"labels": [1.5, 2]}, "'labels' must be a pair of integers"),
    ({"bounds": 5}, "'bounds' must be a pair of numbers or null, found 5"),
    ({"kind": "regression"}, "'bounds' must be a pair of numbers, found None"),
    ({"gap": "1"}, "'gap' must be a number or null, found '1'"),
    ({"margin": [0.1]}, "'margin' must be a number or null"),
    ({"band": True}, "'band' must be a number or null, found True"),
    # a family of NaN values that loaded and verified, and other non-finite
    # numbers: json writes them as NaN, Infinity and -Infinity
    *(({"kind": "regression", "bounds": [0.5, -0.5], "margin": 0.2,
        "band": 0.01, **change}, f"{key!r} must hold no NaN or infinity")
      for change, key in [
          ({"functions": [[NAN, 0.5], [-0.5, NAN]]}, "functions"),
          ({"functions": [[0.5, 0.5], [-0.5, INF]]}, "functions"),
          ({"bounds": [NAN, -0.5]}, "bounds"),
          ({"bounds": [0.5, -INF]}, "bounds"),
          ({"margin": INF}, "margin"),
          ({"band": NAN}, "band"),
          ({"band": -INF}, "band")]),
    ({"gap": NAN}, "'gap' must hold no NaN or infinity"),
])
def test_malformed_family_file_rejected(tmp_path, change, message):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(FAMILY))
    assert verify_thresholds(classfile.load_family(good)).ok
    bad = tmp_path / "bad.json"
    doc = {k: v for k, v in {**FAMILY, **change}.items() if v is not ...}
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="key ") as exc:
        classfile.load_family(bad)
    assert str(exc.value).startswith(f"{bad}: key ")
    assert message in str(exc.value)


# JSON of every type: numbers past 64 bits and non-finite floats (json
# writes NaN and Infinity), strings, lists and objects nested a few deep
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**65, 2**65) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)


def quiet_cli(*argv):
    """`run_cli` with its printed report and error discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run_cli(*argv)


@no_fixture_check
@given(st.one_of(
    json_values,
    st.fixed_dictionaries({"format": st.just(classfile.SEQ_FORMAT),
                           "examples": json_values}),
    st.fixed_dictionaries({"format": st.just(classfile.SEQ_FORMAT),
                           "examples": st.lists(st.lists(
                               st.integers(-2, 6) | json_values,
                               min_size=1, max_size=3), max_size=5)})))
def test_random_sequence_file_exits_0_1_or_2(tmp_path, thr_file, doc):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    assert quiet_cli("soa", "--input", thr_file, "--sequence", seq) in (0, 1, 2)


@no_fixture_check
@given(families(), st.dictionaries(
    st.sampled_from(["kind", "points", "functions", "labels", "gap", "bounds",
                     "margin", "band", "format"]),
    json_values | st.integers(-1, 3) | st.lists(st.integers(-1, 3),
                                                max_size=3), max_size=3))
def test_random_family_file_refused_or_verified(tmp_path, fam, change):
    # a family document with random keys: ValueError on load, or a family
    # the verifier judges without raising
    path = tmp_path / "fam.json"
    classfile.save_family(fam, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    try:
        back = classfile.load_family(path)
    except ValueError:
        event("refused")
        return
    event(f"verified: {verify_thresholds(back).ok}")


def test_generated_class_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("generate", "--family", "random-real", "--functions", 4,
            "--points", 3, "--grid", 0.25, "--seed", 7, "--out", a)
    run_cli("generate", "--family", "random-real", "--functions", 4,
            "--points", 3, "--grid", 0.25, "--seed", 7, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_requires_seed_for_random(tmp_path, capsys):
    code = run_cli("generate", "--family", "random-real", "--points", 3,
                   "--out", tmp_path / "x.json")
    assert code == 2
    assert ("error: generate: --seed is mandatory for randomized generators"
            in capsys.readouterr().err)


@pytest.mark.parametrize("grid", ["1e-320", "1e-300", "1.1e-16", "0", "2.5",
                                  "nan"])
def test_generate_rejects_grid_off_the_rule_exits_2(tmp_path, capsys, grid):
    # below 2**-52 no value could be told off the grid; 1e-320 used to
    # overflow and 1e-300 to fail inside numpy
    code = run_cli("generate", "--family", "random-real", "--grid", grid,
                   "--points", 3, "--seed", 1, "--out", tmp_path / "x.json")
    assert code == 2
    assert (f"key 'grid' must be a number in [2**-52, 2], found {float(grid)}"
            in capsys.readouterr().err)
    assert not (tmp_path / "x.json").exists()


def test_generate_at_the_finest_grid(tmp_path):
    out = tmp_path / "x.json"
    assert run_cli("generate", "--family", "random-real", "--grid", 2.0 ** -52,
                   "--points", 3, "--seed", 1, "--out", out) == 0
    assert classfile.load_class(out).grid == 2.0 ** -52


@pytest.mark.parametrize("argv, message", [
    (["--family", "random-mc", "--labels", 0],
     "random classes need 1 <= K < 2**63 labels, got 0"),
    (["--family", "random-mc", "--labels", 2 ** 63],
     f"random classes need 1 <= K < 2**63 labels, got {2 ** 63}"),
    (["--family", "random-mc", "--functions", -1],
     "random classes need at least one function and one point, got -1 and 3"),
    (["--family", "random-real", "--functions", 0],
     "random classes need at least one function and one point, got 0 and 3"),
], ids=["mc-no-labels", "mc-K-past-int64", "mc-negative-rows", "real-no-rows"])
def test_generate_random_checks_its_shape_exits_2(tmp_path, capsys, argv,
                                                  message):
    # checked before numpy, whose messages ("low >= high", "negative
    # dimensions are not allowed") name neither the option nor its value
    out = tmp_path / "x.json"
    assert run_cli("generate", *argv, "--points", 3, "--seed", 1,
                   "--out", out) == 2
    assert f"error: generate: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--family", "complete", "--points", 0],
     "complete classes need points >= 1, capped at 16, got 0"),
    (["--family", "threshold", "--points", -3],
     "threshold classes need points >= 1, capped at 4096, got -3"),
    (["--family", "constants", "--labels", 1, "--points", 3],
     "constants classes need labels >= 2, capped at 1024, got 1"),
], ids=["complete-no-points", "threshold-negative-points", "constants-one-label"])
def test_generate_names_the_missed_floor_exits_2(tmp_path, capsys, argv,
                                                 message):
    out = tmp_path / "x.json"
    assert run_cli("generate", *argv, "--out", out) == 2
    assert f"error: generate: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_oversize(tmp_path, capsys):
    code = run_cli("generate", "--family", "complete", "--points", 30,
                   "--out", tmp_path / "x.json")
    assert code == 2
    assert "capped" in capsys.readouterr().err
    # refused before numpy tries to allocate 8 TiB
    for family in ("random-mc", "random-real"):
        code = run_cli("generate", "--family", family, "--functions", 1,
                       "--points", 2 ** 40, "--seed", 1,
                       "--out", tmp_path / "x.json")
        assert code == 2
        assert ("random classes are capped at 4096 points"
                in capsys.readouterr().err)


# --- subcommands ---------------------------------------------------------------

def test_dim_subcommand(thr_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("dim", "--input", thr_file, "--kind", "ldim",
                   "--tolerance", 0, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["value"] == 2
    assert doc["aggregates"]["log_star_of_value"] == 1


def test_dim_writes_certificate(thr_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("dim", "--input", thr_file, "--certificate-out", cert_path)
    assert classfile.load_certificate(cert_path).height == 2


def test_soa_subcommand(thr_file, tmp_path):
    seq = tmp_path / "seq.json"
    classfile.save_sequence([0, 1, 2, 3], [1, 1, 2, 2], seq)
    out = tmp_path / "r.json"
    code = run_cli("soa", "--input", thr_file, "--tolerance", 0,
                   "--sequence", seq, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["mistakes"] <= 2
    assert doc["verdicts"][0]["passed"]


def test_adversary_subcommand(thr_file, tmp_path):
    out = tmp_path / "r.json"
    curve = tmp_path / "curve.csv"
    code = run_cli("adversary", "--input", thr_file, "--learner", "const:1",
                   "--plot-data", curve, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["mistakes"] >= 2
    lines = curve.read_text().strip().splitlines()
    assert lines[0].startswith("round,")
    assert len(lines) == doc["aggregates"]["mistakes"] + 1


def test_thresholds_subcommand_round_trips(thr_file, tmp_path):
    fam_path = tmp_path / "fam.json"
    code = run_cli("thresholds", "--input", thr_file, "--tolerance", 0,
                   "--out", fam_path)
    assert code == 0
    fam = classfile.load_family(fam_path)
    assert verify_thresholds(fam).ok


def test_gs_subcommand(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    out = tmp_path / "r.json"
    code = run_cli("gs", "--input", cls, "--target", 0, "--alpha", 0.1,
                   "--trials", 200, "--seed", 7, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(v["passed"] for v in doc["verdicts"])


def test_gs_decides_a_complete_class_at_its_all_1_row(tmp_path):
    # every k >= 1 tournament fails and the support decides it, so no
    # sampler runs; one would read to the cap, about 8.8e7 draws a trial
    cls = tmp_path / "c.json"
    assert run_cli("generate", "--family", "complete", "--points", 6,
                   "--out", cls) == 0
    out = tmp_path / "r.json"
    with mock.patch("tolerantlearn.stability._Sampler",
                    side_effect=AssertionError("a sampler was built")):
        code = run_cli("gs", "--input", cls, "--target", 0, "--alpha", 0.1,
                       "--trials", 20, "--seed", 7, "--out", out)
    assert code == 0
    agg = json.loads(out.read_text())["aggregates"]
    assert 0 < agg["fail_count"] < 20
    assert agg["modal_table"] == [1] * 6


@pytest.mark.parametrize("trials, claimed", [(72, False), (73, True)])
def test_gs_claims_the_frequency_only_when_it_can_fail(tmp_path, trials,
                                                       claimed):
    # constants_class(3, 3): eta = 1/9, and eta - slack > 0 iff
    # trials > 9 (1 - eta) / eta = 72
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    out = tmp_path / "r.json"
    assert run_cli("gs", "--input", cls, "--target", 0, "--alpha", 0.1,
                   "--trials", trials, "--seed", 7, "--out", out) == 0
    doc = json.loads(out.read_text())
    names = [v["name"] for v in doc["verdicts"]]
    assert ("gs-frequency" in names) == claimed
    assert "gs-loss" in names


def test_gs_frequency_claim_holds_on_a_success_path(tmp_path):
    # threshold_class(3), target 1: d = 2 and eta = 1/24, so 208 trials
    # pass 9 (1 - eta) / eta = 207 and the claim is printed; tournaments
    # succeed at k = 1, so successful samples feed the modal table
    cls = tmp_path / "c.json"
    classfile.save_class(threshold_class(3), cls)
    out = tmp_path / "r.json"
    assert run_cli("gs", "--input", cls, "--target", 1, "--alpha", 0.1,
                   "--trials", 208, "--seed", 7, "--out", out) == 0
    verdicts = {v["name"]: v["passed"]
                for v in json.loads(out.read_text())["verdicts"]}
    assert verdicts["gs-frequency"]


def test_adversary_shortfall_fails_its_verdict(thr_file, tmp_path, capsys):
    # a loss that never counts a mistake: the verdict, not an assertion
    # inside the adversary, reports the shortfall
    out = tmp_path / "r.json"
    with mock.patch("tolerantlearn.online.tolerant_loss", return_value=0):
        code = run_cli("adversary", "--input", thr_file, "--learner",
                       "const:1", "--out", out)
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL adversary-forcing" in captured.out
    assert "Traceback" not in captured.out + captured.err
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["mistakes"] == 0


def test_dp_learn_subcommand(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    out = tmp_path / "r.json"
    code = run_cli("dp-learn", "--input", cls, "--target", 0,
                   "--epsilon", 0.5, "--delta", 0.01, "--alpha", 0.2,
                   "--beta", 0.2, "--seed", 4, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    names = {v["name"]: v["passed"] for v in doc["verdicts"]}
    # the ledger is checked inside the learner, so it is no verdict
    assert "dp-budget" not in names and names["dp-list-size"]


def test_sampler_runs_past_64_rows(tmp_path, point_class):
    cls = tmp_path / "points64.json"
    classfile.save_class(point_class(64), cls)   # 65 rows
    common = ["--input", cls, "--target", 1, "--seed", 1]
    for command, argv in [
            ("gs", ["--trials", 20, "--alpha", 0.2]),
            ("dp-learn", ["--epsilon", 0.9, "--delta", 0.1, "--beta", 0.5,
                          "--alpha", 0.9])]:
        out = tmp_path / f"{command}.json"
        assert run_cli(command, *common, *argv, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"] and all(v["passed"] for v in doc["verdicts"])
        if command == "gs":
            assert doc["aggregates"]["fail_count"] < 20


@pytest.mark.parametrize("past_end", [False, True])
def test_target_row_outside_class_exits_2(tmp_path, capsys, past_end):
    # row -1 must not wrap to the last row, nor row `rows` crash as IndexError
    mc = tmp_path / "thr.json"
    classfile.save_class(threshold_class(3), mc)          # 4 rows
    real = tmp_path / "real.json"
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]), real)
    dp = ["--epsilon", 0.5, "--delta", 0.01, "--beta", 0.2]
    common = ["--alpha", 0.2, "--seed", 1, "--out", tmp_path / "r.json"]
    for argv, rows in [(["gs", "--input", mc, "--trials", 5], 4),
                       (["dp-learn", "--input", mc, *dp], 4),
                       (["dp-learn", "--input", real, "--gamma", 0.5, *dp], 2)]:
        target = rows if past_end else -1
        assert run_cli(*argv, "--target", target, *common) == 2
        assert "target row" in capsys.readouterr().err


def test_dp_learn_refuses_a_single_label_exits_2(tmp_path, capsys):
    # gamma 2 discretizes [-1, 1] into one interval, so K = 1 and eta = 0
    real = tmp_path / "real.json"
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]), real)
    assert run_cli("dp-learn", "--input", real, "--gamma", 2, "--target", 0,
                   "--epsilon", 0.5, "--delta", 0.01, "--alpha", 0.2,
                   "--beta", 0.2, "--seed", 1, "--out", tmp_path / "r.json") == 2
    assert (capsys.readouterr().err == "error: dp-learn: the private learner "
            "needs K >= 2 labels, got K = 1\n")


def test_float_labels_in_class_file_exit_2(tmp_path, capsys):
    cls = tmp_path / "frac.json"
    cls.write_text(json.dumps({"format": classfile.CLASS_FORMAT,
                               "kind": "multiclass", "K": 2,
                               "domain_size": 2, "rows": [[1.7, 2.2]]}))
    assert run_cli("dim", "--input", cls) == 2
    assert "labels must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("example", [[0, 1.5], [0.5, 1]])
def test_fractional_sequence_exits_2(tmp_path, capsys, example):
    cls = tmp_path / "c.json"
    classfile.save_class(HypothesisClass(2, [[1, 2], [2, 1]]), cls)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"format": classfile.SEQ_FORMAT,
                               "examples": [[1, 2], example]}))
    with pytest.raises(ValueError):
        classfile.load_sequence(seq)
    assert run_cli("soa", "--input", cls, "--sequence", seq,
                   "--out", tmp_path / "r.json") == 2
    assert "not a pair of integers" in capsys.readouterr().err


SEQ = classfile.SEQ_FORMAT
CLASS = classfile.CLASS_FORMAT
CERT = classfile.CERT_FORMAT


@pytest.mark.parametrize("command, doc, key", [
    ("soa", {"format": SEQ, "examples": 5}, "'examples' must be a list"),
    ("soa", {"format": SEQ}, "'examples' must be a list, found no such key"),
    ("soa", {"format": SEQ, "examples": [[0, 1], [2]]}, "[x, y] pairs"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2,
             "domain_size": 2}, "'rows' must be a list, found no such key"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2, "domain_size": 2,
             "rows": 5}, "'rows' must be a list"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2, "domain_size": 2,
             "rows": [5]}, "'rows' must list rows"),
    *(("dim", {"format": CLASS, "kind": "multiclass", "K": 2,
               "domain_size": width, "rows": [[1]]},
       f"'rows' must list rows of domain_size = {width!r} values")
      for width in ([2], "2", True)),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2, "domain_size": 2,
             "rows": [[True, 1], [2, 1]]}, "'rows' must list numbers"),
    ("dim", {"format": CLASS, "kind": "real", "domain_size": 2,
             "rows": [[0.5, 1e-05], [False, 0.25]]}, "'rows' must list numbers"),
    *(("dim", {"format": CLASS, "kind": "multiclass", "K": K, "domain_size": 2,
               "rows": rows}, key) for K, rows, key in [
        (2, [[1, 3]], "key 'rows': labels must lie in 1..2"),
        (2, [[1, 1.5]], "key 'rows': labels must be integers"),
        (0, [[1, 1]], "key 'K' must be an integer >= 1, found 0")]),
    ("dim", {"format": CLASS, "kind": "real", "grid": None, "domain_size": 2,
             "rows": [[0.5, 1.5]]}, "key 'rows': values must lie in [-1, 1]"),
    *(("dim", {"format": CLASS, "kind": "real", "grid": grid, "domain_size": 1,
               "rows": [[0.0]]},
       f"key 'grid' must be a number in [2**-52, 2] or null, found {grid}")
      for grid in (0, -0.5, 3, 1e-320, 2.0 ** -53, True)),
    ("dim", [1, 2], "expected a JSON object"),
    ("experiment", [1, 2], "expected a JSON object"),
    ("experiment", {"command": "dim", "params": 5}, "'params' must be a JSON"),
    ("soa", {"format": SEQ, "examples": [[True, 1], [0, True]]},
     "example (True, 1) is not a pair of integers"),
    ("thresholds", {"format": CERT, "params": {}, "kind": "multiclass",
                    "left_label": [1], "right_label": [2]},
     "'x' must be a list, found no such key"),
    *(("thresholds", {"format": CERT, "params": {}, "kind": "multiclass", **lists},
       key) for lists, key in [
        ({"x": [0, 1], "left_label": [1, 1], "right_label": [2, 2]},
         "2 nodes do not make a complete tree"),
        ({"x": [0, 1, 1], "left_label": [1, 1, 1], "right_label": [2, 2]},
         "arrays must be 1-D of one length"),
        ({"x": [0, 1, 1], "left_label": [1, True, 1], "right_label": [2, 2, 2]},
         "'left_label' must list numbers of type int"),
        ({"x": [False], "left_label": [1], "right_label": [2]},
         "'x' must list numbers of type int"),
        ({"x": [0, 1, 2**64], "left_label": [1, 1, 1], "right_label": [2, 2, 2]},
         "does not fit in 64 bits"),
        ({"x": [0], "left_label": [2**64], "right_label": [2]},
         "does not fit in 64 bits")]),
    ("thresholds", {"format": "certfile/1", "params": {}, "kind": "multiclass",
                    "height": 1, "root": {"x": 0, "left_label": 1,
                                          "right_label": 2, "left": None,
                                          "right": None}},
     "expected format 'certfile/2', found 'certfile/1'"),
    *((command, b'{"format": "\xff"}', "can't decode byte 0xff")
      for command in ("dim", "soa", "experiment")),
    ("dim", b'{"format": "classfile/1"', "Expecting ',' delimiter"),
], ids=["examples-int", "no-examples", "examples-not-pairs", "no-rows",
        "rows-int", "row-int", "width-list", "width-str", "width-bool",
        "rows-bool", "real-rows-bool", "labels-out-of-range",
        "labels-fractional", "K-zero", "real-out-of-range", "grid-0",
        "grid-negative", "grid-3", "grid-1e-320", "grid-2**-53", "grid-bool",
        "class-list", "config-list", "params-int",
        "examples-bool", "certificate-no-x", "certificate-length-2",
        "certificate-unequal-lengths", "certificate-bool-label",
        "certificate-bool-x", "certificate-x-2**64",
        "certificate-label-2**64", "certificate-version-1", "class-not-utf8",
        "sequence-not-utf8", "config-not-utf8", "class-not-json"])
def test_malformed_documents_exit_2(thr_file, tmp_path, capsys, command, doc,
                                    key):
    bad = tmp_path / "bad.json"
    if isinstance(doc, bytes):
        bad.write_bytes(doc)
    else:
        bad.write_text(json.dumps(doc))
    argv = {"soa": ["--input", thr_file, "--sequence", bad],
            "dim": ["--input", bad],
            "experiment": ["--config", bad],
            "thresholds": ["--input", thr_file, "--certificate", bad]}[command]
    assert run_cli(command, *argv, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and key in err


@pytest.mark.parametrize("argv, message", [
    (["dim", "--kind", "fat", "--gamma", "nan"],
     "gamma must be positive, got nan"),
    (["thresholds", "--gamma", "nan"], "gamma must be positive, got nan"),
    (["dp-learn", "--gamma", "nan", "--target", 0, "--epsilon", 0.5,
      "--delta", 0.01, "--alpha", 0.2, "--beta", 0.2, "--seed", 1],
     "gamma must lie in (0, 2], got nan"),
    (["check", "--scales=-0.5"], "radius must be >= 0, got -0.5"),
    (["check", "--scales=0.5,nan"], "radius must be >= 0, got nan"),
    (["dim", "--kind", "fat", "--gamma", "inf"], "gamma must be finite, got inf"),
    (["dim", "--kind", "fat", "--gamma", "1e-10"],
     "gamma must exceed the two-sided witness slack"),
    (["thresholds", "--gamma", 150], "gamma must lie in (0, 100], got 150.0"),
    # below 2**-52 a discretization's labels would round off 1..K
    (["dp-learn", "--gamma", "1e-300", "--target", 0, "--epsilon", 0.5,
      "--delta", 0.01, "--alpha", 0.2, "--beta", 0.2, "--seed", 1],
     "gamma must be at least 2**-52, got 1e-300"),
    (["thresholds", "--gamma", "2e-17"],
     "gamma must be at least 50 * 2**-52, got 2e-17"),
    (["thresholds", "--gamma", "1e-300"],
     "gamma must be at least 50 * 2**-52, got 1e-300"),
], ids=["dim-fat", "thresholds", "dp-learn", "check-negative", "check-nan",
        "dim-fat-inf", "dim-fat-slack", "thresholds-above-100",
        "dp-learn-below-grid", "thresholds-below-grid", "thresholds-1e-300"])
def test_nan_or_negative_scale_exits_2(tmp_path, capsys, argv, message):
    real = tmp_path / "real.json"
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]), real)
    assert run_cli(argv[0], "--input", real, *argv[1:],
                   "--out", tmp_path / "r.json") == 2
    assert message in capsys.readouterr().err


def test_unbalanced_class_past_recursion_limit_exits_0(tmp_path, unbalanced_pairs):
    # the dimension search descends past this lowered limit on its own stack
    cls, out = tmp_path / "pairs.json", tmp_path / "r.json"
    classfile.save_class(unbalanced_pairs, cls)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code = run_cli("dim", "--input", cls, "--out", out)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert json.loads(out.read_text())["aggregates"]["value"] == 2


def test_deep_certificate_exits_2(thr_file, tmp_path, capsys):
    # a list nested 3,000 deep: the JSON decoder recurses once per level, so
    # the load fails at any depth past the limit
    cert = tmp_path / "deep.json"
    cert.write_text(f'{{"format": "{classfile.CERT_FORMAT}", "params": {{}}, '
                    '"kind": "multiclass", "left_label": [1], "right_label": [2], '
                    '"x": ' + "[" * 3000 + "0" + "]" * 3000 + "}")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code = run_cli("thresholds", "--input", thr_file, "--certificate", cert,
                       "--tolerance", 0, "--out", tmp_path / "fam.json")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cert}: " in err and "recursion limit" in err


def test_deep_class_file_exits_2(tmp_path, capsys):
    cls = tmp_path / "deep.json"
    cls.write_text('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run_cli("dim", "--input", cls, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert f"{cls}: " in err and "recursion limit" in err


def test_check_subcommand_exit_code(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(RealFunctionClass([[1.0 if j == i else 0.0
                                             for j in range(3)]
                                            for i in range(3)]), cls)
    assert run_cli("check", "--input", cls, "--scales", "0.5") == 1
    cls2 = tmp_path / "c2.json"
    classfile.save_class(RealFunctionClass([[-1.0], [1.0]]), cls2)
    assert run_cli("check", "--input", cls2, "--scales", "2.0") == 0


def past_the_cover_cap():
    # 25 rows, more than COVER_ROW_CAP, whose closest two lie 0.5 apart
    F = random_real(25, 6, 0.25, 3)
    dist = np.abs(F.table[:, None, :] - F.table[None, :, :]).max(axis=2)
    np.fill_diagonal(dist, np.inf)
    return F, dist.min()


@pytest.mark.parametrize("scales", ["0.25,1", "1,0.5", "0.49"])
def test_check_past_the_cover_cap_follows_the_distance_rule(tmp_path, scales):
    # no cover is searched past the cap; condition 3 is still decided, by
    # the smallest distance between two rows against the smallest scale
    F, gap = past_the_cover_cap()
    cls, out = tmp_path / "c.json", tmp_path / "r.json"
    classfile.save_class(F, cls)
    holds = gap <= min(float_list(scales)) + 1e-12
    assert run_cli("check", "--input", cls, "--scales", scales,
                   "--out", out) == (0 if holds else 1)
    doc = json.loads(out.read_text())
    assert [(v["name"], v["observed"], v["passed"]) for v in doc["verdicts"]] \
        == [("condition-3", gap, holds)]
    assert all(c["covering_number"] is None and c["centers"] is None
               for c in doc["aggregates"]["covers"])


@pytest.mark.parametrize("scales, message", [
    ("-0.5", "radius must be >= 0, got -0.5"),
    ("0.5,nan", "radius must be >= 0, got nan")])
def test_check_refuses_a_bad_scale_past_the_cover_cap(tmp_path, capsys, scales,
                                                      message):
    cls = tmp_path / "c.json"
    classfile.save_class(past_the_cover_cap()[0], cls)
    assert run_cli("check", "--input", cls, f"--scales={scales}",
                   "--out", tmp_path / "r.json") == 2
    assert message in capsys.readouterr().err


def test_experiment_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "gs",
        "class": {"generator": {"family": "constants", "points": 3, "labels": 3}},
        "params": {"target": 0, "alpha": 0.1, "trials": 100},
        "seed": 11,
        "out": str(tmp_path / "rep.json"),
    }))
    assert run_cli("experiment", "--config", cfg) == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["command"] == "gs"


def test_experiment_rejects_unknown_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bogus"}))
    assert run_cli("experiment", "--config", cfg) == 2
    assert ("error: experiment: config field 'command' is invalid: 'bogus'"
            in capsys.readouterr().err)


# each command with small values for its options, mostly valid; dp-learn is
# left out, as its batch count can reach MAX_BATCHES
_tolerance = st.sampled_from([0, 0, 1, 2, -1])
_gamma = st.sampled_from([0.25, 0.5, 1.0, 0, "nan"])
EXPERIMENT_PARAMS = {
    "dim": ({}, {"kind": st.sampled_from(["ldim", "fat", "pdim", "bogus"]),
                 "tolerance": _tolerance, "gamma": _gamma}),
    "soa": ({"sequence": st.sampled_from(["seq.json", "missing.json"])},
            {"tolerance": _tolerance}),
    "adversary": ({}, {"tolerance": _tolerance, "learner": st.sampled_from(
        ["soa", "majority", "const:1", "const:x"])}),
    "thresholds": ({}, {"tolerance": _tolerance, "gamma": _gamma,
                        "certificate": st.just("missing.json")}),
    "gs": ({"target": st.integers(-1, 2), "alpha": st.sampled_from([0.5, 0.9, 0]),
            "trials": st.integers(0, 4)}, {}),
    "check": ({}, {"scales": st.sampled_from(["0.5", "0.25,1", "-1", "x"])}),
}


@st.composite
def experiment_configs(draw):
    command = draw(st.sampled_from(sorted(EXPERIMENT_PARAMS)))
    required, optional = EXPERIMENT_PARAMS[command]
    generator = draw(st.fixed_dictionaries({
        "family": st.sampled_from(["threshold", "constants", "random-mc",
                                   "random-real", "complete"]),
        "points": st.integers(1, 3), "labels": st.integers(2, 3),
        "functions": st.integers(1, 4)}))
    return {"command": command,
            "seed": draw(st.sampled_from([None, 0, 1, 2, 3])),
            "class": {"generator": generator},
            "params": draw(st.fixed_dictionaries(required, optional=optional))}


@no_fixture_check
@given(experiment_configs())
def test_random_experiment_config_exits_0_1_or_2(tmp_path, doc):
    classfile.save_sequence([0, 1], [1, 2], tmp_path / "seq.json")
    params = doc["params"]
    for key in ("sequence", "certificate"):
        if key in params:
            params[key] = str(tmp_path / params[key])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = quiet_cli("experiment", "--config", cfg)
    assert code in (0, 1, 2)
    event(f"{doc['command']} exit {code}")


def test_experiment_config_cannot_run_an_experiment(tmp_path, capsys):
    # a config naming itself would recurse without end
    cfg = tmp_path / "self.json"
    cfg.write_text(json.dumps({"command": "experiment",
                               "params": {"config": str(cfg)}}))
    assert run_cli("experiment", "--config", cfg) == 2
    assert ("error: experiment: config field 'command' is invalid: "
            "'experiment'" in capsys.readouterr().err)


@pytest.mark.parametrize("K, command, message", [
    (2 ** 63, "gs", "the sampler needs K < 2**63"),
    (2 ** 63, "dp-learn", "the sampler needs K < 2**63"),
    (10 ** 400, "dp-learn", "needs more stable-learner batches than a float "
                            "can count"),
    (2 ** 20, "dp-learn", f"num_batches = "
     f"{batch_count(stability_eta(2 ** 20, 1), 0.2, 0.01, 0.5)} exceeds the "
     f"limit of {MAX_BATCHES}\n"),
    (2 ** 62, "dp-learn", f"exceeds the limit of {MAX_BATCHES}\n"),
], ids=["gs-K-past-int64", "dp-learn-K-past-int64", "dp-learn-eta-underflow",
        "dp-learn-batches-K-2**20", "dp-learn-batches-K-2**62"])
def test_sampler_boundaries_exit_2(tmp_path, capsys, K, command, message):
    # a tournament label is drawn by rng.integers(1, K + 1), an int64; at
    # K = 10**400 and d = 1, eta = (K-1) / ((d+1) K^(d+1)) underflows to 0;
    # at K = 2**20 a run would need 1.4e9 batches, at K = 2**62 1.5e22
    cls = tmp_path / "c.json"
    classfile.save_class(HypothesisClass(K, [[1, 2], [2, 1]]), cls)
    argv = {"gs": ["--alpha", 0.1, "--trials", 3],
            "dp-learn": ["--epsilon", 0.5, "--delta", 0.01, "--alpha", 0.2,
                         "--beta", 0.2]}[command]
    assert run_cli(command, "--input", cls, "--target", 0, "--seed", 1,
                   *argv, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"error: {command}: " in err and message in err


@pytest.mark.parametrize("argv, config, message", [
    (["dim", "--kind", "fat", "--gamma", "0.5", "--input", "{mc}"], None,
     "dim: {mc} is not a real-valued class file"),
    (["adversary", "--input", "{mc}", "--learner", "constant"], None,
     "adversary: unknown learner 'constant'"),
    (["dim", "--kind", "fat", "--input", "{real}"], None,
     "dim: --gamma is required for fat"),
    (["experiment"], {"command": "dim",
                      "class": {"generator": {"family": "nope", "points": 3}}},
     "experiment: invalid parameters for 'generate': argument --family: "
     "invalid choice: 'nope'"),
    (["experiment"], {"command": "dim", "class": {"generator": {
        "family": "threshold", "points": 3, "colour": "red"}}},
     "experiment: invalid parameters for 'generate': unrecognized "
     "arguments: --colour=red"),
    (["experiment"], {"command": "gs", "params": {"bogus": 1}},
     "experiment: invalid parameters for 'gs': the following arguments are "
     "required: --input, --target, --alpha, --trials, --seed "
     "(params {{'bogus': 1}})"),
    (["experiment"], {"command": "gs", "params": {"trials": "many"}},
     "experiment: invalid parameters for 'gs': argument --trials: invalid "
     "int value: 'many'"),
    # an option the mode would ignore
    (["thresholds", "--input", "{real}", "--gamma", "0.5", "--certificate",
      "c.json"], None, "thresholds: --certificate is read only without --gamma"),
    (["dim", "--kind", "ldim", "--gamma", "0.5", "--input", "{mc}"], None,
     "dim: --gamma is read only by --kind fat, not ldim"),
    (["dim", "--kind", "pdim", "--gamma", "0.5", "--input", "{real}"], None,
     "dim: --gamma is read only by --kind fat, not pdim"),
    (["dim", "--kind", "fat", "--gamma", "0.5", "--tolerance", "3", "--input",
      "{real}"], None, "dim: --tolerance is read only by --kind ldim, not fat"),
    (["dim", "--kind", "pdim", "--tolerance", "3", "--input", "{real}"], None,
     "dim: --tolerance is read only by --kind ldim, not pdim"),
    (["thresholds", "--input", "{real}", "--gamma", "0.5", "--tolerance", "4"],
     None, "thresholds: --tolerance is read only without --gamma"),
    # a window of n = ceil(d ln K / alpha) draws past any int64 array length
    (["gs", "--input", "{mc}", "--target", "2", "--alpha", "1e-300",
      "--trials", "3", "--seed", "1"], None,
     "gs: the stable learner at alpha = 1e-300 needs windows of n = "
     "ceil(d ln K / alpha) = 1.39e+300 draws"),
    (["dp-learn", "--input", "{mc}", "--target", "2", "--epsilon", "0.5",
      "--delta", "0.01", "--alpha", "1e-300", "--beta", "0.2", "--seed", "1"],
     None, "dp-learn: the stable learner at alpha = 5e-301 needs windows of "
     "n = ceil(d ln K / alpha) = 2.77e+300 draws"),
], ids=["class-kind", "learner", "fat-without-gamma", "family",
        "generator-fields", "experiment-parameters", "experiment-trials",
        "thresholds-gamma-certificate", "ldim-gamma", "pdim-gamma",
        "fat-tolerance", "pdim-tolerance", "thresholds-gamma-tolerance",
        "gs-tiny-alpha", "dp-learn-tiny-alpha"])
def test_bad_arguments_exit_2(tmp_path, capsys, argv, config, message):
    paths = {"mc": tmp_path / "thr.json", "real": tmp_path / "real.json"}
    classfile.save_class(threshold_class(3), paths["mc"])
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]),
                         paths["real"])
    if config is not None:
        paths["cfg"] = tmp_path / "cfg.json"
        paths["cfg"].write_text(json.dumps(config))
        argv = argv + ["--config", "{cfg}"]
    argv = [a.format(**paths) for a in argv]
    assert run_cli(*argv, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    # one line: no argparse usage block
    assert err.count("\n") == 1 and f"error: {message.format(**paths)}" in err


@pytest.mark.parametrize("out, report_dir", [
    ("nonexistent/r.json", None), (".", None), (None, "thr3.json"),
], ids=["missing-directory", "out-is-a-directory", "report-dir-is-a-file"])
def test_unwritable_report_exits_2(tmp_path, capsys, monkeypatch, out,
                                   report_dir):
    # the run completes, then its report cannot be written: exit 2, the
    # code of a refused input, not 1, that of a failed verdict
    monkeypatch.chdir(tmp_path)
    classfile.save_class(threshold_class(3), "thr3.json")
    if report_dir:
        monkeypatch.setenv("TOLERANTLEARN_REPORT_DIR", report_dir)
    argv = ["dim", "--input", "thr3.json"] + (["--out", out] if out else [])
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: dim: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("k", [0, 4, 99])
def test_constant_learner_outside_the_labels_exits_2(tmp_path, capsys, k):
    # both ends of 1..K on the 3-label constants class, refused before a
    # round is played
    cls, out = tmp_path / "c.json", tmp_path / "r.json"
    classfile.save_class(constants_class(3, 3), cls)
    assert run_cli("adversary", "--input", cls, "--learner", f"const:{k}",
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (
        f"error: adversary: const:<k> needs a label k in 1..3, got {k}" in err)
    assert not out.exists()


@pytest.mark.parametrize("k", ["x", "1.5", "", " 2"])
def test_constant_learner_without_decimal_digits_exits_2(tmp_path, capsys, k):
    # int() would take " 2" and name neither the option nor its form
    cls, out = tmp_path / "c.json", tmp_path / "r.json"
    classfile.save_class(constants_class(3, 3), cls)
    assert run_cli("adversary", "--input", cls, "--learner", f"const:{k}",
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (
        f"error: adversary: --learner const:<k> needs k in decimal digits, "
        f"got {k!r}" in err)
    assert not out.exists()


# --- the parser as the one description of each subcommand -------------------

@pytest.fixture()
def cli_inputs(tmp_path):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("mc", "cert", "consts", "real", "seq", "cfg")}
    classfile.save_class(threshold_class(3), paths["mc"])
    classfile.save_certificate(ldim_tau(threshold_class(3), 0).certificate,
                               paths["cert"], params={"tau": 0})
    classfile.save_class(constants_class(3, 3), paths["consts"])
    classfile.save_class(RealFunctionClass([[-1.0], [1.0]]), paths["real"])
    classfile.save_sequence([0, 1], [1, 2], paths["seq"])
    paths["cfg"].write_text(json.dumps({
        "command": "gs", "class": {"file": str(paths["consts"])},
        "params": {"target": 0, "alpha": 0.1, "trials": 20}, "seed": 1}))
    paths["out"] = tmp_path / "out"
    return {k: str(v) for k, v in paths.items()}


# per subcommand: one argv with every output option, and the report config
# it must record, key order included (the reports of the first six are
# pinned byte for byte)
RUNS = {
    "dim": (["--input", "{mc}", "--certificate-out", "{out}.cert",
             "--out", "{out}"],
            {"input": "{mc}", "kind": "ldim", "tolerance": 0, "gamma": None}),
    "soa": (["--input", "{mc}", "--sequence", "{seq}", "--plot-data",
             "{out}.csv", "--out", "{out}"],
            {"input": "{mc}", "tolerance": 0, "sequence": "{seq}"}),
    "adversary": (["--input", "{mc}", "--learner", "const:1", "--plot-data",
                   "{out}.csv", "--out", "{out}"],
                  {"input": "{mc}", "tolerance": 0, "learner": "const:1"}),
    "gs": (["--input", "{consts}", "--target", "0", "--alpha", "0.1",
            "--trials", "20", "--seed", "1", "--plot-data", "{out}.csv",
            "--out", "{out}"],
           {"input": "{consts}", "target": 0, "alpha": 0.1, "trials": 20,
            "seed": 1}),
    "dp-learn": (["--input", "{consts}", "--target", "0", "--epsilon", "0.5",
                  "--delta", "0.01", "--alpha", "0.2", "--beta", "0.2",
                  "--seed", "1", "--out", "{out}"],
                 {"input": "{consts}", "target": 0, "epsilon": 0.5,
                  "delta": 0.01, "alpha": 0.2, "beta": 0.2, "gamma": None,
                  "seed": 1}),
    "check": (["--input", "{real}", "--scales", "0.5,2", "--out", "{out}"],
              {"input": "{real}", "scales": [0.5, 2.0]}),
    "thresholds": (["--input", "{mc}", "--certificate", "{cert}",
                    "--out", "{out}.fam"],
                   {"input": "{mc}", "tolerance": 0, "gamma": None,
                    "certificate": "{cert}"}),
    "generate": (["--family", "random-mc", "--points", "3", "--seed", "2",
                  "--out", "{out}.class"],
                 {"family": "random-mc", "points": 3, "labels": 2,
                  "functions": 4, "grid": 0.25, "seed": 2}),
    "experiment": (["--config", "{cfg}", "--out", "{out}"],
                   {"config_file": "{cfg}", "command": "gs",
                    "class": {"file": "{consts}"},
                    "params": {"target": 0, "alpha": 0.1, "trials": 20},
                    "seed": 1}),
}


def _fill(obj, paths):
    if isinstance(obj, str):
        return obj.format(**paths)
    if isinstance(obj, dict):
        return {k: _fill(v, paths) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fill(v, paths) for v in obj]
    return obj


@pytest.mark.parametrize("command", sorted(HANDLERS))
def test_report_config_is_the_input_options(cli_inputs, command):
    argv, config = _fill(RUNS[command], cli_inputs)
    args = build_parser().parse_args([command, *argv])
    before = dict(vars(args))
    report = HANDLERS[command](args)
    assert vars(args) == before
    assert json.dumps(report.config) == json.dumps(config)


def test_experiment_report_goes_to_the_runs_report_path(cli_inputs, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "check",
                               "class": {"file": cli_inputs["real"]},
                               "params": {"scales": "2", "out": "run.out"}}))
    args = build_parser().parse_args(["experiment", "--config", str(cfg)])
    HANDLERS["experiment"](args)
    assert args.out == "run.out"


def test_thresholds_experiment_keeps_its_family_file(cli_inputs, tmp_path):
    fam = tmp_path / "fam.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "thresholds",
                               "class": {"file": cli_inputs["mc"]},
                               "params": {"tolerance": 0, "out": str(fam)}}))
    assert run_cli("experiment", "--config", cfg) == 0
    assert verify_thresholds(classfile.load_family(fam)).ok
    report = tmp_path / "report.json"
    assert run_cli("experiment", "--config", cfg, "--out", report) == 0
    assert verify_thresholds(classfile.load_family(fam)).ok
    assert json.loads(report.read_text())["command"] == "thresholds"


def test_generate_experiment_writes_its_class_file(tmp_path):
    cls, report = tmp_path / "gen.json", tmp_path / "report.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "generate", "seed": 5, "params": {
        "family": "random-real", "points": 3, "out": str(cls)}}))
    assert run_cli("experiment", "--config", cfg, "--out", report) == 0
    assert classfile.load_class(cls).table.shape == (4, 3)
    assert json.loads(report.read_text())["aggregates"]["rows"] == 4


@pytest.mark.parametrize("generator, rows", [
    ({"family": "threshold", "points": "3"}, 4),
    ({"family": "random-mc", "points": 3, "functions": 5}, 5),
], ids=["points-string", "random-mc-default-labels"])
def test_generator_block_takes_parser_types_and_defaults(tmp_path, generator,
                                                         rows):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dim", "class": {
        "generator": {**generator, "seed": 3}}}))
    assert run_cli("experiment", "--config", cfg,
                   "--out", tmp_path / "r.json") == 0
    cls = classfile.load_class(tmp_path / "cfg.class.json")
    assert cls.num_rows == rows and cls.K == 2


def test_top_level_seed_seeds_the_generator_of_a_seedless_run(tmp_path):
    # dim takes no --seed, so the top-level seed only seeds the generator
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "dim", "class": {
        "generator": {"family": "random-mc", "points": 3}}, "seed": 3}))
    assert run_cli("experiment", "--config", cfg,
                   "--out", tmp_path / "r.json") == 0
    assert (classfile.load_class(tmp_path / "c.class.json")
            == random_multiclass(4, 3, 2, 3))


def test_bad_params_write_no_class_file(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "dim", "class": {
        "generator": {"family": "random-mc", "points": 3}}, "seed": 3,
        "params": {"tolerance": "one"}}))
    assert run_cli("experiment", "--config", cfg,
                   "--out", tmp_path / "r.json") == 2
    assert not (tmp_path / "c.class.json").exists()


@pytest.mark.parametrize("key", ["help", "h"])
def test_help_param_exits_2_on_one_line(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gs", "params": {key: 1}}))
    assert run_cli("experiment", "--config", cfg) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "invalid parameters for 'gs': argument -h/--help" in err


def test_readme_experiment_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(block)
    assert run_cli("experiment", "--config", "cfg.json") == 0
    cfg = json.loads(block)
    assert json.loads(Path(cfg["out"]).read_text())["command"] == cfg["command"]


def test_readme_commands_parse():
    # the documented command lines, with `\` continuations joined and `#`
    # comments dropped, must stay valid for the parser
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [c[1:] for c in commands if c[:1] == ["tolerantlearn"]]
    assert {c[0] for c in commands} == set(HANDLERS)
    for argv in commands:
        build_parser().parse_args(argv)


def test_reports_deterministic_up_to_wall_clock(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run_cli("gs", "--input", cls, "--target", 0, "--alpha", 0.1,
                "--trials", 100, "--seed", 3, "--out", out)
        doc = json.loads(out.read_text())
        doc.pop("wall_clock_s")
        docs.append(doc)
    assert docs[0] == docs[1]


GS_PINS = [  # (points, target, alpha, trials, seed, report digest)
    (7, 4, 0.1, 40, 3,
     "fd8e750becf40ffba7409424ff2e3d23e174d53d85f962196f6280a19306f489"),
    (7, 4, 0.1, 40, 8,
     "7848714e7f659419239165394c52921fd15f019c890884bd39f8744d2fb01771"),
    (100, 50, 0.5, 20, 3,
     "3d2a963ad95891056cea6d680399d85c956b7c8bbc43afa9512cac22ae1c7b2e"),
    (100, 50, 0.5, 20, 8,
     "c7c2e0e7eec50048b26a60aec4722b26cd8fddeae957281871652358ee15e2aa"),
]


def gs_report_digest(tmp_path, monkeypatch, H, name, *flags):
    """The SHA-256 of `gs`'s report on H, saved as `name` in `tmp_path`, the
    working directory, less its wall clock; the report names the file."""
    monkeypatch.chdir(tmp_path)
    classfile.save_class(H, name)
    assert run_cli("gs", "--input", name, *flags, "--out", "gs.json") == 0
    doc = json.loads((tmp_path / "gs.json").read_text())
    doc.pop("wall_clock_s")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "points, target, alpha, trials, seed, digest", GS_PINS,
    ids=[f"threshold-{points}-{seed}" for points, _, _, _, seed, _ in GS_PINS])
def test_gs_report_is_pinned(tmp_path, monkeypatch, points, target, alpha,
                             trials, seed, digest):
    # threshold_class(7), target 4: tournaments succeed below the top k and
    # fail at it, so the sampler's rejection, acceptance and Fail paths all
    # feed the report.  threshold_class(100), target 50: masks of two words,
    # and the n = 9 tail draws cannot cover 100 points, so the output also
    # depends on the state the sample ends in.  A speedup must leave these
    # bytes alone
    assert gs_report_digest(tmp_path, monkeypatch, threshold_class(points),
                            "thr.json", "--target", target, "--alpha", alpha,
                            "--trials", trials, "--seed", seed) == digest


def test_gs_report_on_three_labels_is_pinned(tmp_path, monkeypatch):
    # K = 3 and d = 3: tournament labels are drawn from three values, and
    # 2 of the 40 runs fail
    assert gs_report_digest(
        tmp_path, monkeypatch, random_multiclass(12, 5, 3, 1), "mc.json",
        "--target", 0, "--alpha", 0.3, "--trials", 40, "--seed", 3) == (
        "e9635abdd045b3714b4ec7027600b68ae2ef9dbf1ef090f33aeca7fcce55fe3e")


def two_point_steps():
    # three real step functions over two points; gamma 0.5 discretizes them
    # into a class of Littlestone dimension 1 whose tournaments can succeed
    return RealFunctionClass([[0.9 if i >= j else -0.9 for i in range(2)]
                              for j in range(3)])


DP_FLAGS = ["--delta", 0.01, "--alpha", 0.2, "--beta", 0.2]


@pytest.mark.parametrize("cls, flags, digest", [
    (constants_class(3, 3), ["--target", 0, "--epsilon", 0.5, *DP_FLAGS,
                             "--seed", 4],
     "5692ec4a758bd533a5cd1ec09e6b84ec8bc5e7ecc122614eb2ec43031fb16d5a"),
    (threshold_class(3), ["--target", 2, "--epsilon", 0.9, *DP_FLAGS,
                          "--seed", 4],
     "e7b4f0023fc3ae359c9ec961be3e2c72558abff216ae43c63881d224ca2aca5d"),
    (two_point_steps(), ["--target", 1, "--gamma", 0.5, "--epsilon", 0.9,
                         "--delta", 0.05, "--alpha", 0.3, "--beta", 0.3,
                         "--seed", 1],
     "393e33944f0937a0b35840f62e22abb0b1fb4b3f3f988ceb8ab502187cd2472e"),
], ids=["constants-3-3", "threshold-3", "regression-steps"])
def test_dp_learn_report_is_pinned(tmp_path, monkeypatch, cls, flags, digest):
    # constants: every k = 1 batch is a decided Fail, the rest are k = 0;
    # threshold_class(3) and the step class: tournaments succeed, so the
    # stable learner's final fold feeds the histogram; a speedup must leave
    # these bytes alone
    monkeypatch.chdir(tmp_path)
    classfile.save_class(cls, "cls.json")
    assert run_cli("dp-learn", "--input", "cls.json", *flags,
                   "--out", "dp.json") == 0
    doc = json.loads((tmp_path / "dp.json").read_text())
    doc.pop("wall_clock_s")
    text = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("cls, flags, digest", [
    (threshold_class(63), ["--kind", "ldim", "--tolerance", 0],
     "d16e44107d378260b9741ee49d262d9302ef869d4d99adacbc0a60014862b371"),
    (random_multiclass(40, 8, 4, 3), ["--kind", "ldim", "--tolerance", 1],
     "f1983522664604d72caf975f07bc85680d827dbec287dd8c67b911db56913d0d"),
    (random_real(20, 6, 0.25, 3), ["--kind", "fat", "--gamma", 0.25],
     "056678a154555ae74d81e74d25800168cb526e890b72dd9fcd3c0e342628b251"),
    (random_real(13, 6, 0.25, 3), ["--kind", "pdim"],
     "51a00253eb01c8337fe0100e0ab4ef7aecc40eeee0dc0518664ac7c66474b945"),
], ids=["ldim-threshold63", "ldim-tau1-random", "fat", "pdim"])
def test_dim_report_and_certificate_are_pinned(tmp_path, monkeypatch, cls,
                                               flags, digest):
    # the certificate's tie-breaks follow split-list order; a change to the
    # dimension engine must leave these bytes alone
    monkeypatch.chdir(tmp_path)
    classfile.save_class(cls, "cls.json")
    assert run_cli("dim", "--input", "cls.json", *flags,
                   "--certificate-out", "cert.json", "--out", "dim.json") == 0
    doc = json.loads((tmp_path / "dim.json").read_text())
    doc.pop("wall_clock_s")
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    h.update((tmp_path / "cert.json").read_bytes())
    assert h.hexdigest() == digest


def test_check_report_is_pinned(tmp_path, monkeypatch):
    # covers of 10, 8 and 3 centers for 12 rows; two rows lie 0.25 apart,
    # so condition 3 passes; a change to the cover search must leave these
    # bytes alone
    monkeypatch.chdir(tmp_path)
    classfile.save_class(random_real(12, 4, 0.25, 0), "cls.json")
    assert run_cli("check", "--input", "cls.json", "--scales", "0.25,0.5,1",
                   "--out", "check.json") == 0
    doc = json.loads((tmp_path / "check.json").read_text())
    doc.pop("wall_clock_s")
    assert (hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
            == "2b8ff9cd3be5c359e90a8d85332686452562b6856a04e7d2e90762d354b334d8")


def step_class_with_near_copies():
    # seven real step functions over six points, each in three copies that
    # the gamma/50 discretization at gamma 1 collapses into one row
    return RealFunctionClass([[0.9 - off if i >= j else -0.9 + off
                               for i in range(6)]
                              for j in range(7) for off in (0.004, 0.0, 0.002)])


@pytest.mark.parametrize("cls, gamma, size, digest", [
    (step_class_with_near_copies(), 1.0, 2,
     "c94b1028e3f8b8438c0c89325128c9cd8127d177a1296d9482ba3c49e9e1c95e"),
    (random_real(6, 3, 0.5, 0), 10.0, 0,
     "4fac3536e6c9886eb59d5f81a3d883220f9f940c7eaeaac4b623605c91c4576e"),
], ids=["step-copies", "empty"])
def test_regression_thresholds_report_and_family_are_pinned(
        tmp_path, monkeypatch, cls, gamma, size, digest):
    # the regression route runs the multiclass extraction on the
    # discretization and maps rows back to their first original copy; a
    # change to either must leave these bytes alone
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TOLERANTLEARN_REPORT_DIR", "reports")
    classfile.save_class(cls, "cls.json")
    assert run_cli("thresholds", "--input", "cls.json", "--gamma", gamma,
                   "--out", "fam.json") == 0
    [report] = (tmp_path / "reports").iterdir()
    doc = json.loads(report.read_text())
    doc.pop("wall_clock_s")
    assert doc["aggregates"]["family_size"] == size
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    h.update((tmp_path / "fam.json").read_bytes())
    assert h.hexdigest() == digest


def test_report_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TOLERANTLEARN_REPORT_DIR", str(tmp_path / "reports"))
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(2, 2), cls)
    run_cli("dim", "--input", cls)
    written = list((tmp_path / "reports").glob("dim-*.json"))
    assert len(written) == 1


def test_console_entry_point(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(threshold_class(3), cls)
    proc = subprocess.run(
        [sys.executable, "-m", "tolerantlearn", "dim", "--input", str(cls)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "value: 2" in proc.stdout
