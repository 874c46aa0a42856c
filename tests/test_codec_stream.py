"""The streamed LP/MPS codec: chunk and block edges, line ends, comments,
malformed input that names its line, and the traced memory of a round trip."""

import gc
import tracemalloc

import numpy as np
import pytest

from mipnn import emit
from mipnn.emit import (EmitError, lp_text, mps_text, parse_lp, parse_mps,
                        read_lp, read_mps, write_lp, write_mps)
from mipnn.ir import Assignment, ModelIR
from mipnn.nnspec import TRAIN_QUANTIZED

from test_emitters import random_model
from test_golden import BUILDS, _dense

FORMATS = {"lp": (lp_text, parse_lp), "mps": (mps_text, parse_mps)}
MODELS = dict(
    {"random%d" % k: (lambda k=k: random_model(np.random.default_rng(100 + k), k))
     for k in range(12)},
    **{name: (lambda build=build: build().model.freeze())
       for name, build in BUILDS.items() if "bilinear" not in name})


def assert_same_model(a, b):
    """Equal names, arrays and objective terms, in the same order."""
    assert (a.name, a.names, a.labels) == (b.name, b.names, b.labels)
    for attr in ("lo", "hi", "is_binary", "indptr", "cols", "coefs", "sense",
                 "rhs", "row_label"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    assert ([(c, r.name) for c, r in a.objective.linear]
            == [(c, r.name) for c, r in b.objective.linear])
    assert ([(c, r1.name, r2.name) for c, r1, r2 in a.objective.quadratic]
            == [(c, r1.name, r2.name) for c, r1, r2 in b.objective.quadratic])
    assert a.objective.constant == b.objective.constant


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_line_blocks_and_one_row_chunks_change_nothing(name, fmt, monkeypatch):
    write, parse = FORMATS[fmt]
    model = MODELS[name]()
    text = write(model)
    default = parse(text)
    monkeypatch.setattr(emit, "_BLOCK", 1)      # every line a block of its own
    monkeypatch.setattr(emit, "_CHUNK", 1)      # every row, column and variable a chunk
    assert write(model) == text
    one = parse(text)
    assert_same_model(one, default)
    assert write(one) == text


@pytest.mark.parametrize("block", [1, 2 ** 16])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_crlf_input_decodes_as_lf(fmt, block, monkeypatch, tmp_path):
    write, parse = FORMATS[fmt]
    model = MODELS["conv-quantized-pooled-abs"]()
    text = write(model)
    monkeypatch.setattr(emit, "_BLOCK", block)
    default = parse(text)
    crlf = text.replace("\n", "\r\n")
    assert_same_model(parse(crlf), default)
    path = tmp_path / ("m." + fmt)
    path.write_bytes(crlf.encode())
    assert_same_model((read_lp if fmt == "lp" else read_mps)(str(path)), default)


@pytest.mark.parametrize("block", [1, 7, 2 ** 16])
def test_lp_comment_lines_are_skipped_in_every_section(block, monkeypatch):
    model = MODELS["dense-quantized"]()
    lines = lp_text(model).split("\n")
    # a comment after every third line, the first one before "Minimize"
    noted = []
    for k, ln in enumerate(lines):
        noted.append(ln)
        if k % 3 == 0 and k < len(lines) - 2:
            noted.append("%s\\ note %d: 1 x <= 2" % (" " * (k % 2), k))
    monkeypatch.setattr(emit, "_BLOCK", block)
    assert_same_model(parse_lp("\n".join(noted)), parse_lp("\n".join(lines)))


def _header_offsets(text):
    """Where each line that opens a section starts."""
    offsets, at = [], 0
    for ln in text.split("\n")[:-1]:
        if ln and not ln[0].isspace() and ln[0] != "\\":
            offsets.append(at)
        at += len(ln) + 1
    return offsets


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_section_header_on_a_block_edge(fmt, monkeypatch):
    write, parse = FORMATS[fmt]
    model = MODELS["dense-verify"]()
    text = write(model)
    default = parse(text)
    offsets = _header_offsets(text)
    assert len(offsets) >= 5
    for h in offsets[1:]:
        # a first read of h - 1 characters ends the block at the line end
        # before the header, which then opens the next block; a read of h
        # characters takes the header in as the block's last line
        for block in (h - 1, h):
            monkeypatch.setattr(emit, "_BLOCK", block)
            assert_same_model(parse(text), default)


LP = ("\\ Problem: m\nMinimize\n obj: 1 x\nSubject To\n c.0: 1 x + 2 y <= 2\n"
      "%s\nBounds\n x free\n 0 <= y <= 1\nEnd\n")
MPS = ("NAME m\nROWS\n N OBJ\n L c.0\nCOLUMNS\n    x OBJ 1\n    x c.0 1\n"
       "    y c.0 2\nRHS\n    RHS c.0 5\n%s\nBOUNDS\n UP BND x 4\n%s\nENDATA\n")


@pytest.mark.parametrize("block", [1, 2 ** 16])
@pytest.mark.parametrize("parse,text,message", [
    (parse_lp, LP % " c.1: 1 x + 1 y 2", r"line 6: constraint 'c.1' has no sense"),
    (parse_lp, LP % " c.1: 1 x + 1 z <= 2", r"line 6: undeclared variable 'z'"),
    (parse_lp, LP % " c.1: x + y <= 2", r"line 6: term 'x' has no coefficient"),
    (parse_lp, (LP % "").replace("End", "Binaries\n y\n z\nEnd"),
     r"line 12: undeclared binary 'z'"),
    (parse_mps, MPS % ("    RHS c.9 5", ""), r"line 11: RHS names unknown row 'c.9'"),
    (parse_mps, MPS % ("", " UP BND w 1"), r"line 14: BOUNDS names unknown column 'w'"),
    (parse_mps, MPS % ("RANGES\n    RNG c.0 2", ""),
     r"line 11: unsupported MPS section 'RANGES'"),
    (parse_lp, LP.replace("x free", "x free\n\n y <= 3") % "",
     r"line 11: Bounds lists 'y' twice"),
    (parse_mps, MPS.replace("L c.0", "L c.0\n G c.0") % ("", ""),
     r"line 5: ROWS declares 'c.0' twice"),
    (parse_lp, LP.replace("0 <= y", "2 <= y") % "",
     r"line 9: the lower bound 2.0 of 'y' exceeds its upper bound 1.0"),
    # a negative upper bound on a column whose lower bound is the default 0
    (parse_mps, MPS % ("", " UP BND y -1"),
     r"line 14: the lower bound 0.0 of 'y' exceeds its upper bound -1.0"),
    # a non-finite coefficient, rhs or objective term, or a NaN bound
    (parse_lp, LP % " c.1: nan x + 1 y <= 2", r"line 6: 'nan' is not finite"),
    (parse_lp, LP % " c.1: 1 x + 1 y <= inf", r"line 6: 'inf' is not finite"),
    (parse_lp, LP.replace("obj: 1 x", "obj: 1 x + nan y") % "",
     r"line 3: 'nan' is not finite"),
    (parse_lp, LP.replace("x free", "x <= nan") % "", r"line 8: a bound of 'x' is NaN"),
    (parse_mps, MPS.replace("y c.0 2", "y c.0 nan") % ("", ""),
     r"line 8: 'nan' is not finite"),
    (parse_mps, MPS.replace("RHS c.0 5", "RHS c.0 inf") % ("", ""),
     r"line 10: 'inf' is not finite"),
    (parse_mps, MPS.replace("x OBJ 1", "x OBJ -inf") % ("", ""),
     r"line 6: '-inf' is not finite"),
    (parse_mps, MPS % ("", " LO BND y nan"), r"line 14: a bound of 'y' is NaN"),
    # a malformed quadratic block, or an undeclared name, in the objective
    (parse_lp, LP.replace("obj: 1 x", "obj: 1 x + [ 2 x ^ 2") % "",
     r"line 3: the objective's '\[' has no '\]'"),
    (parse_lp, LP.replace("obj: 1 x", "obj: 1 x\n + [ 2 x ^ ] / 2") % "",
     r"line 4: bad quadratic term '2 x \^' in the objective"),
    (parse_lp, LP.replace("obj: 1 x", "obj: [ 2 x * ] / 2") % "",
     r"line 3: bad quadratic term '2 x \*' in the objective"),
    (parse_lp, LP.replace("obj: 1 x", "obj: [ 2 x ^ 2 ]\n + 1 y") % "",
     r"line 3: the objective's '\]' is not followed by '/ 2'"),
    (parse_lp, LP.replace("obj: 1 x", "obj: 1 x\n + 1 z") % "",
     r"line 4: undeclared variable 'z' in the objective"),
    # a sign that ends the objective's quadratic block or its linear terms
    (parse_lp, LP.replace("obj: 1 x", "obj: [ 2 x ^ 2 + ] / 2") % "",
     r"line 3: sign '\+' is not followed by a term"),
    (parse_lp, LP.replace("obj: 1 x", "obj: 1 x +") % "",
     r"line 3: sign '\+' is not followed by a term"),
], ids=["lp-no-sense", "lp-undeclared", "lp-no-coefficient", "lp-undeclared-binary",
        "mps-rhs-row", "mps-bounds-column", "mps-ranges", "lp-bound-twice",
        "mps-row-twice", "lp-inverted-bounds", "mps-inverted-bounds",
        "lp-nan-coefficient", "lp-inf-rhs", "lp-nan-objective", "lp-nan-bound",
        "mps-nan-coefficient", "mps-inf-rhs", "mps-inf-objective", "mps-nan-bound",
        "lp-objective-unclosed", "lp-objective-no-exponent", "lp-objective-no-factor",
        "lp-objective-no-halving", "lp-objective-undeclared",
        "lp-objective-block-trailing-sign", "lp-objective-trailing-sign"])
def test_malformed_input_names_its_line(parse, text, message, block, monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK", block)
    with pytest.raises(EmitError, match=message):
        parse(text)


@pytest.mark.parametrize("block", [1, 2 ** 16])
def test_well_formed_variants_of_the_malformed_inputs_parse(block, monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK", block)
    lp = parse_lp(LP % " c.1: 1 x + 1 y <= 2")
    assert [c.label for c in lp.constraints] == ["c", "c"]
    mps = parse_mps(MPS % ("    RHS c.0 6", " LO BND y -1"))
    assert mps.constraints[0].rhs == 6.0
    assert [(v.lo, v.hi) for v in mps.variables] == [(0.0, 4.0), (-1.0, np.inf)]
    # infinite bounds stay legal
    lp = parse_lp((LP % "").replace("x free", "-inf <= x <= inf"))
    assert (lp.variables[0].lo, lp.variables[0].hi) == (-np.inf, np.inf)
    mps = parse_mps(MPS % ("", " LO BND y -inf\n UP BND y inf"))
    assert (mps.variables[1].lo, mps.variables[1].hi) == (-np.inf, np.inf)
    # a comment line stays in its section, wherever it is
    noted = parse_mps(MPS.replace("    y c.0 2", "* note\n    y c.0 2")
                      % ("* x", "*"))
    assert [(c, r.name) for c, r in noted.constraints[0].terms] == [(1.0, "x"), (2.0, "y")]
    assert_same_model(noted, parse_mps(MPS % ("", "")))
    # a minus before the objective's quadratic block negates the block
    lp = parse_lp(LP.replace("obj: 1 x", "obj: 1 x - [ 2 x ^ 2 ] / 2 + 3") % "")
    assert [c for c, _, _ in lp.objective.quadratic] == [-1.0]
    assert lp.objective.constant == 3.0


def _no_table(reader):
    raise AssertionError("the row-name table was built")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_written_mps_is_read_without_a_row_table(name, monkeypatch):
    text = mps_text(MODELS[name]())
    monkeypatch.setattr(emit._MPSReader, "table", _no_table)
    for block in (1, 2 ** 16):
        monkeypatch.setattr(emit, "_BLOCK", block)
        assert mps_text(parse_mps(text)) == text


def _by_table(text, monkeypatch):
    """``parse_mps`` of ``text`` with every row name looked up in the table,
    as when no name is written ``<label>.<k>``."""
    with monkeypatch.context() as m:
        m.setattr(emit, "_written", lambda names: None)
        return parse_mps(text)


MID_ROWS = ("NAME m\nROWS\n N OBJ\n L c.0\n G c.1\n E d.7\n L c.3\nCOLUMNS\n"
            "    x OBJ 1\n    x c.0 1\n    x d.7 3\n    y c.0 2\n    y c.1 1\n"
            "    y c.3 1\nRHS\n    RHS d.7 5\nBOUNDS\n UP BND x 4\nENDATA\n")


@pytest.mark.parametrize("block", [1, 2 ** 16])
@pytest.mark.parametrize("text,labels", [
    (MPS.replace("c.0", "c.00") % ("", ""), ["c"]),        # a leading zero
    (MPS.replace("c.0", "c.+0") % ("", ""), ["c"]),        # a sign
    (MPS.replace("c.0", "c.\u0660") % ("", ""), ["c"]),    # a non-ASCII digit
    (MPS.replace("c.0", "c.1") % ("", ""), ["c"]),         # k is not the row
    (MPS.replace("c.0", "a.b.0") % ("", ""), ["a.b"]),     # two dots
    (MPS.replace("c.0", "r0") % ("", ""), [""]),           # no dot
    (MID_ROWS, ["c", "c", "d", "c"]),                      # d.7 is row 2
    (MPS.replace("c.0", "c\udcff.0") % ("", ""), ["c\udcff"]),  # a lone surrogate
    (MPS.replace("c.0", "c.0\udcff") % ("", ""), ["c"]),
], ids=["leading-zero", "sign", "non-ascii-digit", "position", "two-dots",
        "no-dot", "mid-rows", "surrogate-label", "surrogate-digit"])
def test_other_row_names_read_as_by_the_table(text, labels, block, monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK", block)
    model = parse_mps(text)
    assert [c.label for c in model.constraints] == labels
    assert_same_model(model, _by_table(text, monkeypatch))


@pytest.mark.parametrize("block", [1, 2 ** 16])
@pytest.mark.parametrize("text,message", [
    (MPS.replace(" N OBJ", " N c.0") % ("", ""), r"line 4: ROWS declares 'c.0' twice"),
    (MPS.replace("L c.0", "L c.0\n N c.0") % ("", ""), r"line 5: ROWS declares 'c.0' twice"),
    (MPS.replace("L c.0", "L c.0\n G c.1\n E c.0") % ("", ""),
     r"line 6: ROWS declares 'c.0' twice"),
    (MPS.replace("y c.0 2", "y c.999 2") % ("", ""),
     r"line 8: COLUMNS names unknown row 'c.999'"),
    (MPS % ("    RHS c.999 5", ""), r"line 11: RHS names unknown row 'c.999'"),
    (MPS.replace("y c.0 2", "y c.00 2") % ("", ""),
     r"line 8: COLUMNS names unknown row 'c.00'"),
    (MPS.replace("y c.0 2", "y c.+0 2") % ("", ""),
     r"line 8: COLUMNS names unknown row 'c.\+0'"),
    (MPS.replace("RHS c.0", "RHS c.\u0660") % ("", ""),
     "line 10: RHS names unknown row 'c.\u0660'"),
    (MPS.replace("y c.0 2", "y OBJ.0 2") % ("", ""),
     r"line 8: COLUMNS names unknown row 'OBJ.0'"),
], ids=["objective-first", "objective-after", "twice", "columns-undeclared",
        "rhs-undeclared", "columns-leading-zero", "columns-sign", "rhs-non-ascii-digit",
        "columns-objective-label"])
def test_other_row_names_fail_as_by_the_table(text, message, block, monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK", block)
    for parse in (parse_mps, lambda text: _by_table(text, monkeypatch)):
        with pytest.raises(EmitError, match=message):
            parse(text)


def _traced(fn, *args):
    """What ``fn(*args)`` returns, and its traced peak in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# Traced peaks on the model below (3.1 MB of LP text, 5.3 MB of MPS text),
# each bound about 1.3 times what the streamed codec measured.  A codec that
# holds the whole text costs more than the text itself: 14-28 MB for these
# four calls.  The readers measure 4.6 and 5.1 MB (6.4 and 6.5 when the model
# copied the arrays it was handed and the MPS reader's column table was built
# a second time as ``var_index``).  The LP reader's bound is tighter: it read
# 5.0 MB while it kept each Bounds token beside the rows' string of the same
# name and held its provisional table while ``add_variables`` built its own.
PEAK_BOUNDS_MB = {"write_lp": 3.1, "read_lp": 4.9, "write_mps": 2.6, "read_mps": 6.7}


def _codec_model():
    return _dense(TRAIN_QUANTIZED, hidden=(8, 8), n=40).model.freeze()


def test_codec_traced_peaks_stay_bounded(tmp_path):
    model = _codec_model()
    peaks = {}
    for ext, write, read in (("lp", write_lp, read_lp), ("mps", write_mps, read_mps)):
        path = tmp_path / ("m." + ext)
        _, peaks["write_" + ext] = _traced(write, model, str(path))
        back, peaks["read_" + ext] = _traced(read, str(path))
        assert FORMATS[ext][0](back) == path.read_text()
    assert all(peaks[k] < bound for k, bound in PEAK_BOUNDS_MB.items()), peaks


def test_read_lp_holds_little_beside_the_model_it_returns(tmp_path):
    """The reader's traced peak less the traced size of its model: 1.22 MB,
    against 1.63 MB with a second string per name and two name tables."""
    path = tmp_path / "m.lp"
    write_lp(_codec_model(), str(path))
    tracemalloc.start()
    try:
        model = read_lp(str(path))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.names and (peak - size) / 2 ** 20 < 1.4, (peak - size) / 2 ** 20


@pytest.mark.parametrize("block", [1, 2 ** 16])
@pytest.mark.parametrize("rows, name, line", [
    (" c.1: 1 z + 1 x <= 2\n c.2: 1 w + 1 z <= 1", "z", 6),
    (" c.1: 1 x <= 2\n c.2: 1 w + 1 z <= 1\n c.3: 1 z <= 1", "w", 7),
    (" c.1: 1 x <= 2\n c.2: 1 y + 1 w <= 1\n c.3: 1 z + 1 w <= 1", "w", 7),
])
def test_of_two_undeclared_variables_the_first_used_is_named(rows, name, line, block,
                                                             monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK", block)
    with pytest.raises(EmitError, match=r"^line %d: undeclared variable '%s'$"
                       % (line, name)):
        parse_lp(LP % rows)


@pytest.mark.parametrize("block", [1, 7, 2 ** 16])
def test_bounds_names_no_row_uses_keep_their_place(block, monkeypatch):
    text = LP.replace("x free", "v free\n x free\n u <= 3") % " c.1: 1 y <= 1"
    monkeypatch.setattr(emit, "_BLOCK", block)
    model = parse_lp(text)
    assert model.names == ["v", "x", "u", "y"]
    assert lp_text(model) == text


def test_add_rows_keeps_the_term_arrays_it_is_given():
    """``add_rows`` of the model's rows into a fresh model: 0.49 MB traced,
    the row labels and one chunk's repeat check.  Copying the arrays into
    the model's own buffers read 2.42 MB, and a staging copy of each array
    on top of that 2.55 MB."""
    model = _codec_model()
    rows = [np.array(getattr(model, a)) for a in ("indptr", "cols", "coefs", "sense",
                                                  "rhs", "row_label")]
    fresh = ModelIR()
    fresh.add_variables(model.names, model.lo, model.hi, model.is_binary)
    _, peak = _traced(fresh.add_rows, *rows, model.labels)
    assert peak < 0.65, peak
    fresh.freeze()
    for attr, given in zip(("indptr", "cols", "coefs", "sense", "rhs", "row_label"), rows):
        assert np.array_equal(getattr(fresh, attr), given), attr


# Traced peaks of the model-wide passes on the model above (31,394 rows,
# 85,973 terms), each bound about 1.25 times what was measured: 5.7, 0.56,
# 0.29 and 0.52 MB.  With term-length temporaries, a model that copied the
# arrays it was handed and one string for the whole solution file they read
# 7.4, 2.5, 1.1 and 0.96 MB.  The build now measures 4.0 MB, and its bound
# is 1.2 times that: it read 5.1 MB while it joined its sections into one
# more copy for ``add_rows``.
PASS_BOUNDS_MB = {"build": 4.8, "evaluate_assignment": 0.7,
                  "max_abs_coef_by_label": 0.36, "write_solution": 0.65}


def test_model_passes_trace_bounded_peaks(tmp_path):
    build, build_peak = _traced(lambda: _dense(TRAIN_QUANTIZED, hidden=(8, 8), n=40))
    model = build.model.freeze()
    asg = Assignment(model, np.zeros(len(model.names)))
    peaks = {"build": build_peak}
    for name, fn, args in (
            ("evaluate_assignment", model.evaluate_assignment, (asg,)),
            ("max_abs_coef_by_label", model.max_abs_coef_by_label, ()),
            ("write_solution", emit.write_solution,
             (model, asg, str(tmp_path / "s.txt"), 1.0, 0.0))):
        _, peaks[name] = _traced(fn, *args)
    assert all(peaks[k] < bound for k, bound in PASS_BOUNDS_MB.items()), peaks


@pytest.mark.parametrize("name", ["random3", "conv-quantized-pooled-abs"])
def test_solution_chunks_change_nothing(name, monkeypatch, tmp_path):
    """One variable per chunk writes the bytes of one line per variable
    formatted by ``fmt``."""
    model = MODELS[name]()
    x = np.random.default_rng(5).normal(size=len(model.names)).round(3)
    x[::3] = 1.0
    asg = Assignment(model, x)
    want = "# objective 2.5\n" + "".join(
        "%s %s\n" % (n, emit.fmt(v)) for n, v in zip(model.names, x.tolist()))
    for chunk in (emit._CHUNK, 1):
        monkeypatch.setattr(emit, "_CHUNK", chunk)
        path = tmp_path / ("s%d.txt" % chunk)
        assert emit.write_solution(model, asg, str(path), 2.5) == len(want)
        assert path.read_text() == want
