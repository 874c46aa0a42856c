"""Serialize models to LP/MPS text, read them back, and report statistics.

Both formats are deterministic down to the byte: variables appear in insertion
order, constraints in build order, and every coefficient is printed in the
shortest decimal form that round-trips the underlying double (never scientific
notation).  Constraint rows are named ``<label>.<index>`` so labels survive a
round trip.  Quadratic objective entries use the bracketed ``[ ... ] / 2``
convention in LP files and a QUADOBJ section in MPS files; in both, a stored
entry q on (x, y) contributes q/2 * x * y to the objective, so writers emit
twice the internal coefficient.  Models carrying bilinear constraint terms are
rejected: neither format can express them.

Writers and readers work on the model's arrays: each distinct number is
formatted or parsed once, each row name is built once, and the text is
assembled by one ``join`` over string pieces placed by index arithmetic.
"""

import math
import re
from array import array
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .ir import EQ, GE, LE, SENSES, Assignment, ModelIR, round_binaries

INF = float("inf")


class EmitError(Exception):
    pass


class BilinearUnsupportedError(EmitError):
    pass


class SolutionError(EmitError):
    pass


def fmt(x):
    """Shortest decimal representation that round-trips, positional notation."""
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    r = repr(x)
    if "e" in r or "E" in r:
        return format(Decimal(r), "f")
    return r


def _distinct(values):
    """The distinct values of a float array, sorted, and the index of each
    value among them: ``np.unique(values, return_inverse=True)`` without the
    ``numpy.ma`` import (1.1 MB) that ``np.unique`` makes on first use."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _fmt_each(values, suffix=""):
    """``fmt(x) + suffix`` for each x as an object array, each distinct value
    formatted once."""
    uniq, inverse = _distinct(values)
    return _objects(fmt(u) + suffix for u in uniq.tolist())[inverse]


def _fmt_table(*arrays):
    """``fmt`` over the values of ``arrays``, each distinct finite value
    formatted once; any other value goes to ``fmt`` itself, which refuses
    infinities and NaN."""
    table = {x: fmt(x) for a in arrays for x in set(a.tolist()) if math.isfinite(x)}
    return lambda x: table[x] if x in table else fmt(x)


def _require_frozen(model):
    if not model.frozen:
        raise EmitError("freeze the model before emission")
    if model.bilinear_constraints:
        raise BilinearUnsupportedError(
            "model carries %d bilinear constraints" % len(model.bilinear_constraints))


def _row_names(model):
    """``<label>.<index>`` of every row, as an object array."""
    labels = model.labels
    return _objects("%s.%d" % (labels[k], i)
                    for i, k in enumerate(model.row_label.tolist()))


def _objects(strings):
    """Strings as an object array."""
    return np.array(list(strings), dtype=object)


# ---------------------------------------------------------------------------
# LP format


def write_lp(model, path):
    _require_frozen(model)
    text = lp_text(model)
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def lp_text(model):
    lines = ["\\ Problem: %s" % model.name, "Minimize"]
    obj_parts = []
    for c, r in model.objective.linear:
        obj_parts.append(_signed(c, r.name))
    if model.objective.quadratic:
        quad = []
        for c, r1, r2 in model.objective.quadratic:
            if r1.name == r2.name:
                quad.append(_signed(2.0 * c, "%s ^ 2" % r1.name))
            else:
                quad.append(_signed(2.0 * c, "%s * %s" % (r1.name, r2.name)))
        obj_parts.append("+ [ " + _join_terms(quad) + " ] / 2")
    if model.objective.constant:
        obj_parts.append(_signed(model.objective.constant, ""))
    lines.append(" obj: " + (_join_terms(obj_parts) if obj_parts else "0"))
    lines.append("Subject To")
    rows = _lp_rows(model)
    # every variable gets a bounds line, in insertion order: the Bounds
    # section doubles as the authoritative variable list on re-parse
    tail = ["Bounds"]
    f = _fmt_table(model.lo, model.hi)
    for name, lo, hi in zip(model.names, model.lo.tolist(), model.hi.tolist()):
        if lo == -INF and hi == INF:
            tail.append(" %s free" % name)
        elif lo == -INF:
            tail.append(" %s <= %s" % (name, f(hi)))
        elif hi == INF:
            tail.append(" %s >= %s" % (name, f(lo)))
        elif lo == hi:
            tail.append(" %s = %s" % (name, f(lo)))
        else:
            tail.append(" %s <= %s <= %s" % (f(lo), name, f(hi)))
    binaries = [model.names[k] for k in np.flatnonzero(model.is_binary).tolist()]
    if binaries:
        tail.append("Binaries")
        tail += [" " + name for name in binaries]
    tail.append("End")
    return "\n".join(lines) + "\n" + rows + "\n".join(tail) + "\n"


def _lp_rows(model):
    """The Subject To lines, `` <name>: <terms> <sense> <rhs>`` each."""
    n = len(model.sense)
    counts = np.diff(model.indptr)
    rows = model.row_ids()
    # each term is a "+ 4 " / "- 4 " prefix and a name; a row's first term
    # drops a leading "+ "
    uniq, inverse = _distinct(model.coefs)
    mags = [fmt(abs(c)) for c in uniq.tolist()]
    later = _objects(" %s %s " % ("-" if c < 0 else "+", m)
                     for c, m in zip(uniq.tolist(), mags))
    first = _objects(" - %s " % m if c < 0 else " %s " % m
                     for c, m in zip(uniq.tolist(), mags))
    starts = model.indptr[:-1][counts > 0]
    prefix = later[inverse]
    prefix[starts] = first[inverse[starts]]

    heads = " " + _row_names(model) + ":"
    tails = (_objects((" <= ", " = ", " >= "))[model.sense]
             + _fmt_each(model.rhs, "\n"))
    empty = counts == 0
    tails[empty] = " 0" + tails[empty]

    # row r: its head, a prefix and a name per term, its tail
    pieces = np.empty(2 * len(rows) + 2 * n, dtype=object)
    offset = 2 * np.arange(n)
    pieces[2 * model.indptr[:-1] + offset] = heads
    pieces[2 * model.indptr[1:] + offset + 1] = tails
    at = 2 * np.arange(len(rows)) + 2 * rows + 1
    pieces[at] = prefix
    pieces[at + 1] = _objects(model.names)[model.cols]
    return "".join(pieces.tolist())


def _signed(c, body):
    sign = "-" if c < 0 else "+"
    mag = fmt(abs(c))
    return ("%s %s %s" % (sign, mag, body)).rstrip()


def _join_terms(parts):
    out = " ".join(parts)
    if out.startswith("+ "):
        out = out[2:]
    return out


def read_lp(path):
    with open(path) as fh:
        return parse_lp(fh.read())


_LP_SECTIONS = ("minimize", "subject to", "bounds", "binaries", "end")
_SIGNS = {"+", "-"}
# terms decoded per pass of the LP row reader: bounds its token lists
_LP_BLOCK = 3 * 2 ** 16


def parse_lp(text):
    model = ModelIR("model")
    found = {s: [] for s in _LP_SECTIONS}
    lines = None
    for ln in text.splitlines():
        s = ln.strip()
        if not s:
            continue
        if s[0] == "\\":
            if s[1:].lstrip().startswith("Problem:"):
                model.name = s.split("Problem:", 1)[1].strip()
            continue
        if len(s) <= 10 and s.lower() in found:
            lines = found[s.lower()]
        elif lines is not None:
            # the long sections keep their lines unstripped: no second copy
            lines.append(ln if lines is found["subject to"] else s)

    # the Bounds/Binaries sections are the authoritative variable list, in
    # insertion order
    names, lo, hi = [], [], []
    for s in found["bounds"]:
        name, lo_v, hi_v = _parse_bound_line(s)
        names.append(name)
        lo.append(lo_v)
        hi.append(hi_v)
    binaries = set(found["binaries"])
    model.add_variables(names, lo, hi, [name in binaries for name in names])

    model.add_rows(*_parse_lp_rows(found["subject to"], model.var_index))
    _parse_objective(model, [t for s in found["minimize"]
                             for t in (s[4:] if s.startswith("obj:") else s).split()])
    model.freeze()
    return model


def _parse_lp_rows(lines, index):
    """CSR, senses, rhs and labels of the Subject To lines.  Rows of the
    written form ``[sign] coef name (sign coef name)* sense rhs`` are decoded
    together, a block of terms at a time; when any row is not of that form,
    every row is parsed term by term instead."""
    cols, values, minus = array("q"), array("d"), array("b")
    indptr, senses, rhs, labels = [0], [], [], []
    sense_of = {s: s for s in SENSES}
    label_of = {}
    flat = []          # sign, coef, name of the terms of the current block

    def decode():
        signs = flat[0::3]
        if not set(signs) <= _SIGNS:
            raise ValueError("sign")
        # every sign is one character, "+" or "-"
        minus.frombytes(np.frombuffer("".join(signs).encode(), dtype=np.uint8)
                        == ord("-"))
        values.extend(map(float, flat[1::3]))
        cols.extend(map(index.__getitem__, flat[2::3]))
        flat.clear()

    try:
        for ln in lines:
            name, _, rest = ln.partition(":")
            toks = rest.split()
            if toks[0] not in _SIGNS:
                flat.append("+")
            flat += toks[:-2]
            if len(flat) % 3:
                raise ValueError(ln)
            indptr.append(indptr[-1] + len(toks) // 3)
            senses.append(sense_of[toks[-2]])
            rhs.append(float(toks[-1]))
            label = name.strip().rpartition(".")[0]
            labels.append(label_of.setdefault(label, label))
            if len(flat) > _LP_BLOCK:
                decode()
        decode()
    except (IndexError, KeyError, ValueError):
        return _parse_lp_rows_by_term(lines, index)
    values = np.frombuffer(values)
    return (indptr, cols, np.where(np.frombuffer(minus, dtype=bool), -values, values),
            senses, rhs, labels)


def _parse_lp_rows_by_term(lines, index):
    indptr, cols, values, senses, rhs, labels = [0], [], [], [], [], []
    for ln in lines:
        name, rest = ln.split(":", 1)
        toks = rest.split()
        sense_idx = next(i for i, t in enumerate(toks) if t in (LE, EQ, GE))
        terms, const = _parse_terms(toks[:sense_idx], index.__getitem__)
        cols += [j for _, j in terms]
        values += [c for c, _ in terms]
        indptr.append(len(cols))
        senses.append(toks[sense_idx])
        rhs.append(float(toks[sense_idx + 1]) - const)
        labels.append(name.strip().rpartition(".")[0])
    return indptr, cols, values, senses, rhs, labels


def _parse_bound_line(s):
    toks = s.split()
    if len(toks) == 2 and toks[1] == "free":
        return toks[0], -INF, INF
    if len(toks) == 3 and toks[1] == "<=":
        return toks[0], -INF, float(toks[2])
    if len(toks) == 3 and toks[1] == ">=":
        return toks[0], float(toks[2]), INF
    if len(toks) == 3 and toks[1] == "=":
        return toks[0], float(toks[2]), float(toks[2])
    if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
        return toks[2], float(toks[0]), float(toks[4])
    raise EmitError("bad bound line: %r" % s)


def _parse_terms(tokens, lookup):
    """Sign/coefficient/name token runs -> ([(coef, lookup(name))], constant)."""
    terms = []
    const = 0.0
    sign = 1.0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t == "+":
            sign = 1.0
            i += 1
            continue
        if t == "-":
            sign = -1.0
            i += 1
            continue
        coef = sign * float(t)
        if i + 1 < len(tokens) and tokens[i + 1] not in ("+", "-"):
            terms.append((coef, lookup(tokens[i + 1])))
            i += 2
        else:
            const += coef
            i += 1
        sign = 1.0
    return terms, const


def _parse_objective(model, tokens):
    if tokens == ["0"]:
        return
    # split off the bracketed quadratic block, if any
    if "[" in tokens:
        bi = tokens.index("[")
        ei = tokens.index("]")
        lin_tokens = tokens[:bi] + tokens[ei + 3:]   # skip "] / 2"
        if lin_tokens and lin_tokens[-1] == "+":
            lin_tokens = lin_tokens[:-1]
        quad_tokens = tokens[bi + 1:ei]
        i = 0
        sign = 1.0
        while i < len(quad_tokens):
            t = quad_tokens[i]
            if t in ("+", "-"):
                sign = 1.0 if t == "+" else -1.0
                i += 1
                continue
            coef = sign * float(t)
            v1 = model.var(quad_tokens[i + 1])
            if quad_tokens[i + 2] == "^":
                model.add_objective_quadratic(coef / 2.0, v1, v1)
            else:
                model.add_objective_quadratic(coef / 2.0, v1,
                                              model.var(quad_tokens[i + 3]))
            i += 4
            sign = 1.0
    else:
        lin_tokens = tokens
    terms, const = _parse_terms(lin_tokens, model.var)
    for c, r in terms:
        model.add_objective_linear(c, r)
    model.add_objective_constant(const)


# ---------------------------------------------------------------------------
# MPS format


def write_mps(model, path):
    _require_frozen(model)
    data = mps_text(model).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def mps_text(model):
    row_names = _row_names(model)
    tags = _objects((" L ", " E ", " G "))     # in SENSES order
    out = ["NAME %s\nROWS\n N OBJ\n" % model.name,
           "".join((tags[model.sense] + row_names + "\n").tolist()),
           "COLUMNS\n", _mps_columns(model, row_names), "RHS\n"]
    if model.objective.constant:
        out.append("    RHS OBJ %s\n" % fmt(-model.objective.constant))
    set_rows = np.flatnonzero(model.rhs != 0.0)
    out.append("".join(("    RHS " + row_names[set_rows] + " "
                        + _fmt_each(model.rhs[set_rows], "\n")).tolist()))

    lines = ["BOUNDS"]
    f = _fmt_table(model.lo, model.hi)
    for name, binary, lo, hi in zip(model.names, model.is_binary.tolist(),
                                    model.lo.tolist(), model.hi.tolist()):
        if binary:
            # binaries default to [0, 1]; only tightened bounds are emitted
            if lo == hi:
                lines.append(" FX BND %s %s" % (name, f(lo)))
            else:
                if lo != 0.0:
                    lines.append(" LO BND %s %s" % (name, f(lo)))
                if hi != 1.0:
                    lines.append(" UP BND %s %s" % (name, f(hi)))
            continue
        if lo == -INF and hi == INF:
            lines.append(" FR BND %s" % name)
            continue
        if lo == hi:
            lines.append(" FX BND %s %s" % (name, f(lo)))
            continue
        if lo != 0.0:
            if lo == -INF:
                lines.append(" MI BND %s" % name)
            else:
                lines.append(" LO BND %s %s" % (name, f(lo)))
        if hi != INF:
            lines.append(" UP BND %s %s" % (name, f(hi)))

    if model.objective.quadratic:
        lines.append("QUADOBJ")
        for c, r1, r2 in model.objective.quadratic:
            lines.append("    %s %s %s" % (r1.name, r2.name, fmt(2.0 * c)))
    lines.append("ENDATA")
    out.append("\n".join(lines) + "\n")
    return "".join(out)


def _mps_columns(model, row_names):
    """The COLUMNS lines: per variable an OBJ entry, then its rows in row
    order, with a marker line wherever the run of integer columns starts or
    ends."""
    nv = len(model.names)
    obj = np.zeros(nv)
    for c, r in model.objective.linear:
        obj[r.index] += c
    order = np.argsort(model.cols, kind="stable")
    cols = model.cols[order]
    values = _fmt_each(np.concatenate([obj, model.coefs[order]]), "\n")

    binary = model.is_binary
    marker = binary != np.concatenate(([False], binary[:-1]))
    per_var = marker + 1 + np.bincount(cols, minlength=nv)
    start = np.concatenate(([0], np.cumsum(per_var)))
    nlines = int(start[-1]) + (1 if nv and binary[-1] else 0)
    # three pieces per line: "    <name> ", "<row> " and "<coef>\n"
    grid = np.empty((nlines, 3), dtype=object)
    obj_at = start[:-1] + marker
    grid[obj_at, 0] = _objects("    %s " % name for name in model.names)
    grid[obj_at, 1] = "OBJ "
    grid[obj_at, 2] = values[:nv]
    first_of_col = np.concatenate(([0], np.cumsum(per_var - marker - 1)))[:-1]
    entry_at = obj_at[cols] + 1 + np.arange(len(cols)) - first_of_col[cols]
    grid[entry_at, 0] = grid[obj_at[cols], 0]
    grid[entry_at, 1] = row_names[model.row_ids()[order]] + " "
    grid[entry_at, 2] = values[nv:]
    marks = np.flatnonzero(marker).tolist() + ([nv] if nlines > start[-1] else [])
    for k, v in enumerate(marks):
        at = start[v] if v < nv else nlines - 1
        grid[at] = ("    MARKER%d 'MARKER' " % k,
                    "'INTORG'" if v < nv and binary[v] else "'INTEND'", "\n")
    return "".join(grid.ravel().tolist())


def read_mps(path):
    with open(path) as fh:
        return parse_mps(fh.read())


def _mps_sections(text):
    """Header tokens and body span of each section, in file order: a header
    is a line that starts with a non-blank character."""
    starts = [0] + [m.end() for m in re.finditer(r"\n(?=\S)", text)] + [len(text)]
    out = []
    for a, b in zip(starts[:-1], starts[1:]):
        if text[a:a + 1].strip():
            eol = text.find("\n", a, b)
            head_end = b if eol < 0 else eol + 1
            out.append((text[a:head_end].split(), head_end, b))
    return out


def _blocks(text, spans, size=2 ** 20):
    """The text of ``spans`` in pieces of about ``size`` characters, each
    ending at a line end."""
    for a, b in spans:
        while a < b:
            c = text.find("\n", min(a + size, b), b)
            c = b if c < 0 else c + 1
            yield text[a:c]
            a = c


def _read_columns(text, spans, lookup):
    """The COLUMNS section, decoded a block at a time: "<col> <row> <value>"
    lines and "<name> 'MARKER' <tag>" lines, ``lookup`` giving each row name's
    index (OBJ -1, 'MARKER' -2).  Returns the column names in order of first
    appearance, whether each is integer, and per entry its column, row and
    value."""
    index = {}
    var_of, row_of, values = array("q"), array("q"), array("d")
    binary = array("b")
    in_int = False
    for block in _blocks(text, spans):
        toks = block.split()
        if len(toks) % 3:
            raise EmitError("COLUMNS lines must be '<column> <row> <value>'")
        rows_b = np.fromiter(map(lookup.__getitem__, toks[1::3]), dtype=np.int64,
                             count=len(toks) // 3)
        marks = np.flatnonzero(rows_b == -2)
        entry = np.flatnonzero(rows_b != -2)
        # an entry is integer when the last marker before it opened a run
        tags = toks[2::3]
        opened = np.array([in_int] + [tags[m] == "'INTORG'" for m in marks.tolist()])
        inside = opened[np.searchsorted(marks, entry)]
        in_int = bool(opened[-1])
        names_b = _objects(toks[0::3])[entry].tolist()
        known = len(index)
        for name in dict.fromkeys(names_b):
            index.setdefault(name, len(index))
        v = np.fromiter(map(index.__getitem__, names_b), dtype=np.int64,
                        count=len(names_b))
        # a column's kind is set where it first appears
        seen = np.maximum.accumulate(np.concatenate(([known - 1], v)))
        binary.frombytes(inside[v > seen[:-1]].tobytes())
        var_of.frombytes(v.tobytes())
        row_of.frombytes(rows_b[entry].tobytes())
        values.extend(map(float, _objects(tags)[entry].tolist()))
    return (list(index), np.frombuffer(binary, dtype=bool),
            np.frombuffer(var_of, dtype=np.int64),
            np.frombuffer(row_of, dtype=np.int64), np.frombuffer(values))


def parse_mps(text):
    model = ModelIR("model")
    sense_by_tag = {"L": LE, "G": GE, "E": EQ}
    spans = {"ROWS": [], "COLUMNS": [], "RHS": [], "BOUNDS": [], "QUADOBJ": []}
    for toks, a, b in _mps_sections(text):
        if toks[0] == "NAME" and len(toks) > 1:
            model.name = toks[1]
        if toks[0] in spans:
            spans[toks[0]].append((a, b))

    def section(name):
        return "".join(text[a:b] for a, b in spans[name])

    toks = section("ROWS").split()
    if len(toks) % 2:
        raise EmitError("ROWS lines must be '<type> <name>'")
    tags, rows = toks[0::2], toks[1::2]
    if "N" in tags:
        kept = [k for k, tag in enumerate(tags) if tag != "N"]
        tags, rows = [tags[k] for k in kept], [rows[k] for k in kept]
    row_index = dict(zip(rows, range(len(rows))))
    senses = list(map(sense_by_tag.__getitem__, tags))
    labels = [name.rpartition(".")[0] for name in rows]

    lookup = dict(row_index, OBJ=-1)
    lookup["'MARKER'"] = -2
    names, binary, var_of, row_of, values = _read_columns(
        text, spans["COLUMNS"], lookup)

    bounds = {}
    for line in section("BOUNDS").splitlines():
        t = line.split()
        if not t:
            continue
        tag, col = t[0], t[2]
        lo, hi = bounds.get(col, (0.0, INF))
        if tag == "FR":
            lo, hi = -INF, INF
        elif tag == "MI":
            lo = -INF
        elif tag == "FX":
            lo = hi = float(t[3])
        elif tag == "LO":
            lo = float(t[3])
        elif tag == "UP":
            hi = float(t[3])
        else:
            raise EmitError("unsupported bound tag %r" % tag)
        bounds[col] = (lo, hi)
    lo, hi = [], []
    for name, b in zip(names, binary.tolist()):
        lo_v, hi_v = bounds.get(name, (0.0, INF))
        if b:
            lo_v, hi_v = (max(lo_v, 0.0), min(hi_v, 1.0)) if name in bounds else (0.0, 1.0)
        lo.append(lo_v)
        hi.append(hi_v)
    model.add_variables(names, lo, hi, binary)

    # objective entries in column order, rows with their terms in column order
    on_obj = row_of == -1
    for j in np.flatnonzero(on_obj)[np.argsort(var_of[on_obj], kind="stable")].tolist():
        if values[j]:
            model.add_objective_linear(float(values[j]), model.ref(int(var_of[j])))
    on_row = np.flatnonzero(~on_obj)
    order = on_row[np.lexsort((var_of[on_row], row_of[on_row]))]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of[order],
                                                        minlength=len(rows)))))

    toks = section("RHS").split()
    if len(toks) % 3:
        raise EmitError("RHS lines must be '<set> <row> <value>'")
    rhs_of = dict(zip(toks[1::3], toks[2::3]))
    obj_const = -float(rhs_of.pop("OBJ")) if "OBJ" in rhs_of else 0.0
    rhs = np.zeros(len(rows))
    for name, val in rhs_of.items():
        if name in row_index:
            rhs[row_index[name]] = float(val)
    model.add_rows(indptr, var_of[order], values[order], senses, rhs, labels)

    for line in section("QUADOBJ").splitlines():
        t = line.split()
        if t:
            model.add_objective_quadratic(float(t[2]) / 2.0, model.var(t[0]),
                                          model.var(t[1]))
    model.add_objective_constant(obj_const)
    model.freeze()
    return model


# ---------------------------------------------------------------------------
# solution files


@dataclass
class SolutionFile:
    assignment: Assignment
    objective: float = None
    gap: float = None


def write_solution(model, asg, path, objective=None, gap=None):
    lines = []
    if objective is not None:
        lines.append("# objective %s\n" % fmt(objective))
    if gap is not None:
        lines.append("# gap %s\n" % fmt(gap))
    values = [asg.values[name] for name in model.names]
    lines += (_objects(model.names) + " " + _fmt_each(values, "\n")).tolist()
    data = "".join(lines).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_solution(model, path, fill_missing=False, tol=1e-6):
    """Whitespace-separated name/value lines; ``#`` comments; optional
    ``# objective <v>`` / ``# gap <v>`` headers.  A repeated name or a value
    that is not a finite number is an error.  Binaries within tol of an
    integer are rounded; anything farther off is left for the audit to flag."""
    objective = None
    gap = None
    values = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            s = ln.strip()
            if not s:
                continue
            if s.startswith("#"):
                toks = s[1:].split()
                if len(toks) == 2 and toks[0] in ("objective", "gap"):
                    if toks[0] == "objective":
                        objective = float(toks[1])
                    else:
                        gap = float(toks[1])
                continue
            toks = s.split()
            if len(toks) != 2:
                raise SolutionError("%s:%d: expected 'name value'" % (path, lineno))
            name, val = toks
            if name not in model.var_index:
                raise SolutionError("%s:%d: unknown variable %r" % (path, lineno, name))
            if name in values:
                raise SolutionError("%s:%d: repeated variable %r" % (path, lineno, name))
            try:
                x = float(val)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise SolutionError("%s:%d: value %r of %r is not a finite number"
                                    % (path, lineno, val, name))
            values[name] = x
    for name in model.names:
        if name not in values:
            if fill_missing:
                values[name] = 0.0
            else:
                raise SolutionError("%s: no value for %r" % (path, name))
    values = round_binaries(model, values, tol)
    return SolutionFile(assignment=Assignment(values=values),
                        objective=objective, gap=gap)


# ---------------------------------------------------------------------------
# statistics


@dataclass
class StatsReport:
    continuous: int
    binary: int
    constraints_by_label: dict
    quadratic_terms: int
    bilinear_terms: int
    binaries_by_family: dict

    @property
    def total_variables(self):
        return self.continuous + self.binary

    @property
    def total_constraints(self):
        return sum(self.constraints_by_label.values())

    def to_text(self):
        lines = ["variables %d" % self.total_variables,
                 "  continuous %d" % self.continuous,
                 "  binary %d" % self.binary]
        for fam in sorted(self.binaries_by_family):
            lines.append("    %s %d" % (fam, self.binaries_by_family[fam]))
        lines.append("constraints %d" % self.total_constraints)
        for label in sorted(self.constraints_by_label):
            lines.append("  %s %d" % (label, self.constraints_by_label[label]))
        lines.append("quadratic_terms %d" % self.quadratic_terms)
        lines.append("bilinear_terms %d" % self.bilinear_terms)
        return "\n".join(lines) + "\n"


def model_stats(model):
    if not model.frozen:
        raise EmitError("freeze the model before computing statistics")
    binv = int(model.is_binary.sum())
    counts = np.bincount(model.row_label, minlength=len(model.labels)).tolist()
    by_label = {label: c for label, c in zip(model.labels, counts) if c}
    for quadcon in model.bilinear_constraints:
        label = quadcon[4]
        by_label[label] = by_label.get(label, 0) + 1
    fam = {}
    for k in np.flatnonzero(model.is_binary).tolist():
        base = model.names[k].split("[")[0]
        fam[base] = fam.get(base, 0) + 1
    return StatsReport(
        continuous=len(model.names) - binv, binary=binv,
        constraints_by_label=by_label,
        quadratic_terms=len(model.objective.quadratic),
        bilinear_terms=sum(len(q[0]) for q in model.bilinear_constraints),
        binaries_by_family=fam)


def count_forecast(arch, n, hyper=None):
    """Predicted binary-variable counts without building the model."""
    from .nnspec import ConvArch, DenseArch, conv_map_shapes
    out = {}
    if isinstance(arch, DenseArch):
        out["delta"] = n * sum(arch.hidden_widths)
        out["gamma"] = arch.num_hidden
        out["zeta"] = 0
    elif isinstance(arch, ConvArch):
        shapes = conv_map_shapes(arch)
        out["delta"] = n * sum(c * h * w for c, h, w in shapes)
        out["gamma"] = sum(layer.filters for layer in arch.conv_layers)
        zeta = 0
        for l, layer in enumerate(arch.conv_layers):
            if layer.pool is not None:
                c, h, w = shapes[l]
                zeta += n * c * h * w
        out["zeta"] = zeta
    else:
        raise TypeError("unknown architecture %r" % (arch,))
    if hyper is not None and hyper.mode == "train-quantized":
        from .dense import param_tensors
        tensors = param_tensors(arch)
        wcount = sum(math.prod(t.shape) for t in tensors)
        bcount = sum(t.shape[0] for t in tensors) if hyper.quantize_biases else 0
        out["digits"] = hyper.bits * (wcount + bcount)
    return out
