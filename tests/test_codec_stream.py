"""The streamed LP/MPS codec: chunk and block edges, line ends, comments,
malformed input that names its line, and the traced memory of a round trip."""

import gc
import tracemalloc

import numpy as np
import pytest

from mipnn import emit
from mipnn.emit import (EmitError, lp_text, mps_text, parse_lp, parse_mps,
                        read_lp, read_mps, write_lp, write_mps)
from mipnn.ir import ModelIR
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
], ids=["lp-no-sense", "lp-undeclared", "lp-no-coefficient", "lp-undeclared-binary",
        "mps-rhs-row", "mps-bounds-column", "mps-ranges", "lp-bound-twice",
        "mps-row-twice", "lp-inverted-bounds", "mps-inverted-bounds",
        "lp-nan-coefficient", "lp-inf-rhs", "lp-nan-objective", "lp-nan-bound",
        "mps-nan-coefficient", "mps-inf-rhs", "mps-inf-objective", "mps-nan-bound",
        "lp-objective-unclosed", "lp-objective-no-exponent", "lp-objective-no-factor",
        "lp-objective-no-halving", "lp-objective-undeclared"])
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
# four calls.  The readers measure 6.4 and 8.3 MB since they hand each term
# array to ``add_rows`` in one copy, after releasing their own term buffers.
PEAK_BOUNDS_MB = {"write_lp": 3.1, "read_lp": 8.3, "write_mps": 2.6, "read_mps": 10.7}


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


def test_add_rows_copies_each_term_array_once():
    """``add_rows`` of the model's rows into a fresh model: 2.42 MB traced,
    about 2 MB of it the stored arrays.  A staging copy of each array
    reads 2.55 MB, and with a merge that sorts on every call 3.1 MB."""
    model = _codec_model()
    rows = [np.array(getattr(model, a)) for a in ("indptr", "cols", "coefs", "sense",
                                                  "rhs", "row_label")]
    fresh = ModelIR()
    fresh.add_variables(model.names, model.lo, model.hi, model.is_binary)
    _, peak = _traced(fresh.add_rows, *rows, model.labels)
    assert peak < 2.5, peak
    fresh.freeze()
    for attr, given in zip(("indptr", "cols", "coefs", "sense", "rhs", "row_label"), rows):
        assert np.array_equal(getattr(fresh, attr), given), attr
