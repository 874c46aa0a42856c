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

The text is streamed both ways.  A writer yields it in chunks of ``_CHUNK``
rows, columns or variables; each chunk is one ``join`` over string pieces
placed by index arithmetic, each distinct number is formatted once per call
and a row's name is built only in the chunk that prints it.  ``write_lp`` and
``write_mps`` encode and write each chunk as it comes; ``lp_text`` and
``mps_text`` join them.  A reader takes its input ``_BLOCK`` characters at a
time, extended to the next line end, and one decoder per format carries the
section state from block to block (``parse_lp``/``parse_mps`` feed it a
string through ``io.StringIO``).  No whole-file string, line list or token
list is held: what grows with the file is the model's own arrays and the table
of column names that the references need.  A written MPS file needs no table
of row names: each reference to a row named ``<label>.<k>`` decodes to row k,
a block of references at a time.
"""

import io
import math
import re
from array import array
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice, repeat

import numpy as np

from .ir import (SENSES, Assignment, DuplicateNameError, InvertedBoundsError,
                 MissingVariableError, ModelIR, _append, round_binaries)
from .nnspec import TRAIN_QUANTIZED, param_tensors

INF = float("inf")

# rows, columns or variables per chunk of a writer
_CHUNK = 2 ** 12
# characters per block of a reader, which then reads on to the line end
_BLOCK = 2 ** 16


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


class _Numbers(dict):
    """``fmt`` by lookup: ``numbers[x]`` formats each distinct x once."""

    def __missing__(self, x):
        text = self[x] = fmt(x)
        return text


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


def _fmt_each(values, numbers, pattern="%s"):
    """``pattern % fmt(x)`` for each x as an object array."""
    uniq, inverse = _distinct(values)
    return _objects(pattern % numbers[u] for u in uniq.tolist())[inverse]


def _require_frozen(model):
    """Refuse a model that is not frozen, has bilinear rows or has a number
    neither format can print: a non-finite coefficient, rhs or objective
    term, or a NaN bound (infinite bounds are printed as such)."""
    if not model.frozen:
        raise EmitError("freeze the model before emission")
    if model.bilinear_constraints:
        raise BilinearUnsupportedError(
            "model carries %d bilinear constraints" % len(model.bilinear_constraints))
    bad = np.flatnonzero(~np.isfinite(model.coefs))
    if bad.size:
        k = int(bad[0])
        row = int(np.searchsorted(model.indptr, k, side="right")) - 1
        raise EmitError("row %s.%d: coefficient %r of %r is not finite" % (
            model.labels[model.row_label[row]], row, float(model.coefs[k]),
            model.names[model.cols[k]]))
    bad = np.flatnonzero(~np.isfinite(model.rhs))
    if bad.size:
        row = int(bad[0])
        raise EmitError("row %s.%d: rhs %r is not finite" % (
            model.labels[model.row_label[row]], row, float(model.rhs[row])))
    bad = np.flatnonzero(np.isnan(model.lo) | np.isnan(model.hi))
    if bad.size:
        raise EmitError("variable %r: a bound is NaN" % model.names[bad[0]])
    obj = model.objective
    terms = ([(c, "coefficient of %r" % r.name) for c, r in obj.linear]
             + [(c, "coefficient of %r * %r" % (r1.name, r2.name))
                for c, r1, r2 in obj.quadratic] + [(obj.constant, "constant")])
    for c, what in terms:
        if not math.isfinite(c):
            raise EmitError("objective: %s %r is not finite" % (what, c))


def _row_names(model, rows, head=""):
    """The two pieces of the name of each of ``rows``: ``<head><label>.``
    and ``<index>``, as object arrays."""
    labels = _objects(head + label + "." for label in model.labels)
    return labels[model.row_label[rows]], _objects(map(str, rows.tolist()))


def _objects(strings):
    """Strings as an object array."""
    return np.array(list(strings), dtype=object)


def _lines(*columns):
    """The text of lines made of one piece from each of ``columns``: an
    array with a piece per line, or one string for every line."""
    count = next(len(c) for c in columns if not isinstance(c, str))
    grid = np.empty((count, len(columns)), dtype=object)
    for k, column in enumerate(columns):
        grid[:, k] = column
    return "".join(grid.ravel().tolist())


def _spans(n):
    """``range(n)`` in chunks, as (start, stop) pairs."""
    return [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


def _write(chunks, path):
    """Encode the text ``chunks`` into ``path`` one at a time; returns the
    byte count."""
    size = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            size += len(data)
            fh.write(data)
    return size


def _decode(fh, reader):
    """Feed the text of ``fh`` to ``reader`` a block at a time and return
    its model.  Header lines, those ``reader.HEADER`` matches (after a line
    end), go to ``reader.header`` and the text between them to
    ``reader.body``, each with the number of its first line."""
    line = 1
    for block in iter(lambda: fh.read(_BLOCK), ""):
        # the leading line end lets a header open the block
        text = "\n" + block + fh.readline()
        at = 1
        for m in reader.HEADER.finditer(text):
            line = _body(reader, text[at:m.start() + 1], line)
            reader.header(m.group(1), line)
            line += 1
            at = m.end() + 1
        line = _body(reader, text[at:], line)
    return reader.model()


def _body(reader, text, line):
    if text:
        reader.body(text, line)
    return line + text.count("\n")


def _ids(keys, table):
    """The id of each of ``keys`` in ``table`` (key -> id), which gives each
    new key the next id, in order of first appearance."""
    for key in dict.fromkeys(keys):
        table.setdefault(key, len(table))
    return np.fromiter(map(table.__getitem__, keys), np.int64, len(keys))


def _locate(text, line, check):
    """An EmitError naming the first line of ``text`` (line ``line`` of the
    input) for whose tokens ``check`` returns a message."""
    for k, ln in enumerate(text.split("\n")):
        toks = ln.split()
        message = check(toks) if toks else None
        if message:
            return EmitError("line %d: %s" % (line + k, message))
    return EmitError("malformed input from line %d" % line)


def _not_a_number(token):
    """A message when ``token`` is not a number, else None."""
    try:
        float(token)
    except ValueError:
        return "%r is not a number" % token
    return None


def _not_finite(token):
    """A message when ``token`` is not a finite number, else None."""
    try:
        if math.isfinite(float(token)):
            return None
    except ValueError:
        return "%r is not a number" % token
    return "%r is not finite" % token


def _finite(token, line):
    """The number ``token`` on line ``line``, which must be finite."""
    message = _not_finite(token)
    if message:
        raise EmitError("line %d: %s" % (line, message))
    return float(token)


# ---------------------------------------------------------------------------
# LP format


def write_lp(model, path):
    """Write the LP text of a frozen model to ``path`` a chunk at a time;
    returns the byte count."""
    _require_frozen(model)
    return _write(_lp_chunks(model), path)


def lp_text(model):
    """The LP text of a frozen model: the chunks of ``write_lp``, joined."""
    _require_frozen(model)
    return "".join(_lp_chunks(model))


def _lp_chunks(model):
    numbers = _Numbers()
    yield ("\\ Problem: %s\nMinimize\n obj: %s\nSubject To\n"
           % (model.name, _lp_objective(model)))
    names = _objects(model.names)
    for a, b in _spans(len(model.sense)):
        yield _lp_rows(model, names, numbers, a, b)
    # every variable gets a bounds line, in insertion order: the Bounds
    # section doubles as the authoritative variable list on re-parse
    yield "Bounds\n"
    for a, b in _spans(len(names)):
        lines = []
        for name, lo, hi in zip(model.names[a:b], model.lo[a:b].tolist(),
                                model.hi[a:b].tolist()):
            if lo == -INF and hi == INF:
                lines.append(" %s free\n" % name)
            elif lo == -INF:
                lines.append(" %s <= %s\n" % (name, numbers[hi]))
            elif hi == INF:
                lines.append(" %s >= %s\n" % (name, numbers[lo]))
            elif lo == hi:
                lines.append(" %s = %s\n" % (name, numbers[lo]))
            else:
                lines.append(" %s <= %s <= %s\n" % (numbers[lo], name, numbers[hi]))
        yield "".join(lines)
    if model.is_binary.any():
        yield "Binaries\n"
        for a, b in _spans(len(names)):
            binary = np.flatnonzero(model.is_binary[a:b]) + a
            yield "".join(" %s\n" % name for name in names[binary].tolist())
    yield "End\n"


def _lp_objective(model):
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
    return _join_terms(obj_parts) if obj_parts else "0"


def _lp_rows(model, names, numbers, a, b):
    """The Subject To lines of rows a to b, `` <name>: <terms> <sense> <rhs>``
    each."""
    indptr = model.indptr[a:b + 1]
    first, last = int(indptr[0]), int(indptr[-1])
    counts = np.diff(indptr)
    # each term is a "+ 4 " / "- 4 " prefix and a name; a row's first term
    # takes ": 4 " / ": - 4 " instead, and an empty row's sense ": 0 <= "
    uniq, inverse = _distinct(model.coefs[first:last])
    mags = [numbers[abs(c)] for c in uniq.tolist()]
    later = _objects(" %s %s " % ("-" if c < 0 else "+", m)
                     for c, m in zip(uniq.tolist(), mags))
    opening = _objects(": - %s " % m if c < 0 else ": %s " % m
                       for c, m in zip(uniq.tolist(), mags))
    starts = indptr[:-1][counts > 0] - first
    prefix = later[inverse]
    prefix[starts] = opening[inverse[starts]]
    senses = _objects((" <= ", " = ", " >= ", ": 0 <= ", ": 0 = ", ": 0 >= "))

    # row r: its label and index, a prefix and a name per term, its sense
    # and its rhs
    n = b - a
    local = indptr - first
    pieces = np.empty(4 * n + 2 * (last - first), dtype=object)
    head = 4 * np.arange(n) + 2 * local[:-1]
    pieces[head], pieces[head + 1] = _row_names(model, np.arange(a, b), " ")
    tail = 4 * np.arange(n) + 2 * local[1:] + 2
    pieces[tail] = senses[model.sense[a:b] + 3 * (counts == 0)]
    pieces[tail + 1] = _fmt_each(model.rhs[a:b], numbers, "%s\n")
    at = 4 * np.repeat(np.arange(n), counts) + 2 * np.arange(last - first) + 2
    pieces[at] = prefix
    pieces[at + 1] = names[model.cols[first:last]]
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
        return _decode(fh, _LPReader())


def parse_lp(text):
    return _decode(io.StringIO(text, newline=None), _LPReader())


_SIGNS = {"+", "-"}
_SENSE_OF = {s: k for k, s in enumerate(SENSES)}


class _LPReader:
    """The LP decoder: the section it is in and what it has read so far.
    Rows name their variables before the Bounds section declares them, so
    each name gets a provisional column in order of first use, which the
    declared order replaces at the end."""

    # a comment or a section keyword alone on its line
    HEADER = re.compile(r"\n[ \t]*(?=[\\MSBEmsbe])(\\[^\n]*|(?i:minimize|subject to"
                        r"|bounds|binaries|end)[ \t]*(?![^\n]))")

    def __init__(self):
        self.name = "model"
        self.section = None
        self.objective = []                  # tokens of the Minimize section
        self.objective_line = []             # line of each of those tokens
        self.columns = {}                    # name -> provisional column
        self.keys = []                       # its names in order, listed for Bounds
        self.indptr, self.cols, self.coefs = array("q", [0]), array("q"), array("d")
        self.sense, self.rhs, self.label = array("b"), array("d"), array("i")
        self.labels = {}                     # label -> id
        self.row_line = array("i")           # line of each row, for errors
        self.names, self.lo, self.hi = [], array("d"), array("d")
        self.bound_line = array("q")         # line of each bound, for errors
        self.bound_column = array("q")       # provisional column of each bound
        self.binaries = {}                   # name -> line of its first listing

    def header(self, text, line):
        if text[0] != "\\":
            self.section = text.rstrip().lower()
        elif text[1:].lstrip().startswith("Problem:"):
            self.name = text.split("Problem:", 1)[1].strip()

    def body(self, text, line):
        if self.section == "subject to":
            lines = text.split("\n")
            if not lines[-1]:
                lines.pop()
            try:
                rows = _lp_rows_written(lines, line)
            except (IndexError, KeyError, ValueError):
                rows = _lp_rows_by_term(lines, line)
            self._add_rows(*rows)
        elif self.section == "bounds":
            names = []
            for k, s in enumerate(text.split("\n"), line):
                toks = s.split()
                if toks:
                    name, lo, hi = _parse_bound_line(toks, k)
                    names.append(name)
                    self.lo.append(lo)
                    self.hi.append(hi)
                    self.bound_line.append(k)
            # a name the rows use keeps their string, so that its token is
            # freed; a name no row uses gets the next provisional column
            columns, keys = self.columns, self.keys
            at = np.fromiter(map(columns.get, names, repeat(-1)), np.int64, len(names))
            if at.min(initial=0) < 0:
                at = _ids(names, columns)
            if len(keys) < len(columns):
                keys += islice(columns, len(keys), None)
            _append(self.bound_column, at)
            self.names += map(keys.__getitem__, at.tolist())
        elif self.section == "binaries":
            for k, s in enumerate(text.split("\n"), line):
                for name in s.split():
                    self.binaries.setdefault(name, k)
        elif self.section == "minimize":
            for k, s in enumerate(text.split("\n"), line):
                s = s.strip()
                toks = (s[4:] if s.startswith("obj:") else s).split()
                self.objective += toks
                self.objective_line += [k] * len(toks)

    def _add_rows(self, coefs, names, counts, senses, rhs, labels, lines):
        self.cols.frombytes(_ids(names, self.columns).tobytes())
        self.coefs.frombytes(np.asarray(coefs, dtype=float).tobytes())
        self.indptr.frombytes((np.cumsum(counts, dtype=np.int64)
                               + self.indptr[-1]).tobytes())
        self.sense.frombytes(bytes(senses))
        self.rhs.extend(rhs)
        _append(self.label, _ids(labels, self.labels).astype(np.intc))
        self.row_line.extend(lines)

    def model(self):
        # each provisional column's declared one, the Bounds position of its
        # name; the provisional table goes before add_variables makes its own
        declared = np.full(len(self.columns), -1, dtype=np.int64)
        declared[np.frombuffer(self.bound_column, np.int64)] = np.arange(len(self.names))
        cols = np.frombuffer(self.cols, dtype=np.int64)
        if declared.min(initial=0) < 0:
            k = int(np.argmax(declared < 0))
            row = np.searchsorted(self.indptr, np.argmax(cols == k), "right") - 1
            raise EmitError("line %d: undeclared variable %r"
                            % (self.row_line[row], next(islice(self.columns, k, None))))
        self.cols = self.columns = self.keys = None
        model = ModelIR(self.name)
        binaries = self.binaries
        binary = [name in binaries for name in self.names]
        try:
            model.add_variables(self.names, self.lo, self.hi, binary)
        except DuplicateNameError as e:
            name, = e.args
            second = [k for k, n in enumerate(self.names) if n == name][1]
            raise EmitError("line %d: Bounds lists %r twice"
                            % (self.bound_line[second], name)) from None
        except InvertedBoundsError:
            k = int(np.argmax(np.frombuffer(self.lo) > np.frombuffer(self.hi)))
            raise EmitError(_inverted(self.bound_line[k], self.names[k],
                                      self.lo[k], self.hi[k])) from None
        if sum(binary) < len(binaries):
            name, k = next((name, k) for name, k in binaries.items()
                           if name not in model.var_index)
            raise EmitError("line %d: undeclared binary %r" % (k, name))
        # each provisional column becomes its declared one, in place
        np.take(declared, cols, out=cols, mode="clip")
        model.add_rows(self.indptr, cols, self.coefs, self.sense,
                       self.rhs, self.label, [k.strip() for k in self.labels])
        _parse_objective(model, self.objective, self.objective_line)
        model.freeze()
        return model


def _lp_rows_written(lines, line):
    """The rows of ``lines`` in the written form ``<name>: [sign] coef name
    (sign coef name)* sense rhs``, one per line, decoded together; any other
    line raises IndexError, KeyError or ValueError.  Returns per term its
    coefficient and variable name, per row its term count, sense code, rhs,
    label and line number."""
    flat, counts, senses, rhs, labels = [], [], [], [], []
    for ln in lines:
        name, _, rest = ln.partition(":")
        toks = rest.split()
        if toks[0] not in _SIGNS:
            flat.append("+")
        flat += toks[:-2]
        if len(flat) % 3:
            raise ValueError(ln)
        counts.append(len(toks) // 3)
        senses.append(_SENSE_OF[toks[-2]])
        rhs.append(float(toks[-1]))
        labels.append(name.rpartition(".")[0])     # stripped in model()
    signs = flat[0::3]
    if not set(signs) <= _SIGNS:
        raise ValueError("sign")
    values = np.fromiter(map(float, flat[1::3]), float, len(signs))
    if not (np.isfinite(values).all() and np.isfinite(rhs).all()):
        raise ValueError("not finite")
    # every sign is one character, "+" or "-"
    minus = np.frombuffer("".join(signs).encode(), dtype=np.uint8) == ord("-")
    return (np.where(minus, -values, values), flat[2::3], counts, senses, rhs,
            labels, range(line, line + len(lines)))


def _lp_rows_by_term(lines, line):
    """``_lp_rows_written`` for rows of any form: each line on its own, term
    by term, skipping blank lines; a malformed row raises EmitError."""
    coefs, names, counts, senses, rhs, labels, row_lines = [], [], [], [], [], [], []
    for k, ln in enumerate(lines, line):
        if not ln.strip():
            continue
        try:
            name, colon, rest = ln.partition(":")
            if not colon:
                raise EmitError("constraint has no name")
            toks = rest.split()
            at = next((i for i, t in enumerate(toks) if t in _SENSE_OF), None)
            if at is None:
                raise EmitError("constraint %r has no sense" % name.strip())
            if len(toks) != at + 2:
                raise EmitError("constraint %r does not end in '<sense> <rhs>'"
                                % name.strip())
            if _not_finite(toks[at + 1]):
                raise EmitError(_not_finite(toks[at + 1]))
        except EmitError as e:
            raise EmitError("line %d: %s" % (k, e)) from None
        row_coefs, row_names, const = _parse_terms(toks[:at], [k] * at)
        rhs.append(float(toks[at + 1]) - const)
        coefs += row_coefs
        names += row_names
        counts.append(len(row_names))
        senses.append(_SENSE_OF[toks[at]])
        labels.append(name.strip().rpartition(".")[0])
        row_lines.append(k)
    return coefs, names, counts, senses, rhs, labels, row_lines


def _parse_bound_line(toks, line):
    """The name and bounds of a Bounds line; infinite bounds are legal,
    NaN ones are not."""
    try:
        if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            name, lo, hi = toks[2], float(toks[0]), float(toks[4])
        elif len(toks) == 2 and toks[1] == "free":
            name, lo, hi = toks[0], -INF, INF
        elif len(toks) == 3 and toks[1] == "<=":
            name, lo, hi = toks[0], -INF, float(toks[2])
        elif len(toks) == 3 and toks[1] == ">=":
            name, lo, hi = toks[0], float(toks[2]), INF
        elif len(toks) == 3 and toks[1] == "=":
            name, lo, hi = toks[0], float(toks[2]), float(toks[2])
        else:
            raise ValueError
    except ValueError:
        raise EmitError("line %d: bad bound line %r" % (line, " ".join(toks))) from None
    if math.isnan(lo) or math.isnan(hi):
        raise EmitError("line %d: a bound of %r is NaN" % (line, name))
    return name, lo, hi


def _inverted(line, name, lo, hi):
    return ("line %d: the lower bound %r of %r exceeds its upper bound %r"
            % (line, float(lo), name, float(hi)))


def _parse_terms(tokens, lines):
    """Sign/coefficient/name token runs -> (coefficients, names, constant);
    ``lines`` holds the line of each token, for errors."""
    coefs, names = [], []
    const = 0.0
    sign = 1.0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t in _SIGNS:
            if i + 1 == len(tokens):
                raise EmitError("line %d: sign %r is not followed by a term"
                                % (lines[i], t))
            sign = 1.0 if t == "+" else -1.0
            i += 1
            continue
        try:
            coef = sign * float(t)
        except ValueError:
            raise EmitError("line %d: term %r has no coefficient" % (lines[i], t)) from None
        if not math.isfinite(coef):
            raise EmitError("line %d: %s" % (lines[i], _not_finite(t)))
        if i + 1 < len(tokens) and tokens[i + 1] not in _SIGNS:
            coefs.append(coef)
            names.append(tokens[i + 1])
            i += 2
        else:
            const += coef
            i += 1
        sign = 1.0
    return coefs, names, const


def _parse_objective(model, tokens, lines):
    """Add the objective of the Minimize section's ``tokens`` to ``model``;
    ``lines`` holds the line of each token, for errors."""
    if tokens == ["0"]:
        return

    def var(name):
        try:
            return model.var(name)
        except MissingVariableError:
            raise EmitError("line %d: undeclared variable %r in the objective"
                            % (lines[tokens.index(name)], name)) from None

    # split off the bracketed quadratic block, if any
    if "[" in tokens:
        bi = tokens.index("[")
        try:
            ei = tokens.index("]", bi)
        except ValueError:
            raise EmitError("line %d: the objective's '[' has no ']'" % lines[bi]) from None
        if tokens[ei + 1:ei + 3] != ["/", "2"]:
            raise EmitError("line %d: the objective's ']' is not followed by '/ 2'"
                            % lines[ei])
        # the sign before "[" applies to the whole block
        at = bi - 1 if bi and tokens[bi - 1] in _SIGNS else bi
        block_sign = -1.0 if tokens[at:bi] == ["-"] else 1.0
        lin_tokens = tokens[:at] + tokens[ei + 3:]   # skip "] / 2"
        lin_lines = lines[:at] + lines[ei + 3:]
        i = bi + 1
        sign = 1.0
        while i < ei:
            t = tokens[i]
            if t in _SIGNS:
                if i + 1 == ei:
                    raise EmitError("line %d: sign %r is not followed by a term"
                                    % (lines[i], t))
                sign = 1.0 if t == "+" else -1.0
                i += 1
                continue
            # each term is "<coef> <name> ^ 2" or "<coef> <name> * <name>"
            op = tokens[i + 2] if i + 4 <= ei else None
            if not (op == "*" or op == "^" and tokens[i + 3] == "2"):
                raise EmitError("line %d: bad quadratic term %r in the objective"
                                % (lines[i], " ".join(tokens[i:min(i + 4, ei)])))
            coef = block_sign * sign * _finite(t, lines[i])
            v1 = var(tokens[i + 1])
            model.add_objective_quadratic(coef / 2.0, v1,
                                          v1 if op == "^" else var(tokens[i + 3]))
            i += 4
            sign = 1.0
    else:
        lin_tokens, lin_lines = tokens, lines
    coefs, names, const = _parse_terms(lin_tokens, lin_lines)
    for c, name in zip(coefs, names):
        model.add_objective_linear(c, var(name))
    model.add_objective_constant(const)


# ---------------------------------------------------------------------------
# MPS format


def write_mps(model, path):
    """Write the MPS text of a frozen model to ``path`` a chunk at a time;
    returns the byte count."""
    _require_frozen(model)
    return _write(_mps_chunks(model), path)


def mps_text(model):
    """The MPS text of a frozen model: the chunks of ``write_mps``, joined."""
    _require_frozen(model)
    return "".join(_mps_chunks(model))


def _mps_chunks(model):
    numbers = _Numbers()
    n = len(model.sense)
    tags = _objects((" L ", " E ", " G "))     # in SENSES order
    yield "NAME %s\nROWS\n N OBJ\n" % model.name
    for a, b in _spans(n):
        yield _lines(tags[model.sense[a:b]], *_row_names(model, np.arange(a, b)), "\n")
    yield "COLUMNS\n"
    yield from _mps_columns(model, numbers)
    yield "RHS\n"
    if model.objective.constant:
        yield "    RHS OBJ %s\n" % fmt(-model.objective.constant)
    for a, b in _spans(n):
        rows = np.flatnonzero(model.rhs[a:b] != 0.0) + a
        yield _lines("    RHS ", *_row_names(model, rows),
                     _fmt_each(model.rhs[rows], numbers, " %s\n"))
    yield "BOUNDS\n"
    for a, b in _spans(len(model.names)):
        yield _mps_bounds(model, numbers, a, b)
    quad = model.objective.quadratic
    if quad:
        yield "QUADOBJ\n"
        for a, b in _spans(len(quad)):
            yield "".join("    %s %s %s\n" % (r1.name, r2.name, numbers[2.0 * c])
                          for c, r1, r2 in quad[a:b])
    yield "ENDATA\n"


def _mps_bounds(model, numbers, a, b):
    """The BOUNDS lines of variables a to b."""
    lines = []
    for name, binary, lo, hi in zip(model.names[a:b], model.is_binary[a:b].tolist(),
                                    model.lo[a:b].tolist(), model.hi[a:b].tolist()):
        if binary:
            # binaries default to [0, 1]; only tightened bounds are emitted
            if lo == hi:
                lines.append(" FX BND %s %s\n" % (name, numbers[lo]))
            else:
                if lo != 0.0:
                    lines.append(" LO BND %s %s\n" % (name, numbers[lo]))
                if hi != 1.0:
                    lines.append(" UP BND %s %s\n" % (name, numbers[hi]))
            continue
        if lo == -INF and hi == INF:
            lines.append(" FR BND %s\n" % name)
            continue
        if lo == hi:
            lines.append(" FX BND %s %s\n" % (name, numbers[lo]))
            continue
        if lo != 0.0:
            if lo == -INF:
                lines.append(" MI BND %s\n" % name)
            else:
                lines.append(" LO BND %s %s\n" % (name, numbers[lo]))
        if hi != INF:
            lines.append(" UP BND %s %s\n" % (name, numbers[hi]))
    return "".join(lines)


def _mps_columns(model, numbers):
    """The COLUMNS lines, in chunks of whole columns of about ``_CHUNK``
    lines: per variable an OBJ entry, then its rows in row order, with a
    marker line wherever the run of integer columns starts or ends."""
    nv = len(model.names)
    obj = np.zeros(nv)
    for c, r in model.objective.linear:
        obj[r.index] += c
    order = np.argsort(model.cols, kind="stable")     # the terms by column
    colptr = np.concatenate(([0], np.cumsum(np.bincount(model.cols, minlength=nv))))
    binary = model.is_binary
    marker = binary != np.concatenate(([False], binary[:-1]))
    ends = np.cumsum(marker + 1 + np.diff(colptr))  # the line after each column
    marks = 0                                        # marker lines so far
    a = 0
    while a < nv:
        b = max(a + 1, int(np.searchsorted(ends, ends[a - 1] + _CHUNK if a else _CHUNK,
                                           side="right")))
        terms = order[colptr[a]:colptr[b]]
        cols = model.cols[terms] - a
        opens = marker[a:b]
        start = np.concatenate(([0], np.cumsum(opens + 1 + np.diff(colptr[a:b + 1]))))
        closes = b == nv and binary[-1]              # the integer run ends last
        # four pieces per line: "    <name> ", "<label>." or "OBJ",
        # "<index>" or "" and " <coef>\n"
        grid = np.empty((start[-1] + closes, 4), dtype=object)
        obj_at = start[:-1] + opens
        heads = _objects("    %s " % name for name in model.names[a:b])
        grid[obj_at, 0] = heads
        grid[obj_at, 1] = "OBJ"
        grid[obj_at, 2] = ""
        grid[obj_at, 3] = _fmt_each(obj[a:b], numbers, " %s\n")
        first = colptr[a:b] - colptr[a]
        entry_at = obj_at[cols] + 1 + np.arange(len(terms)) - first[cols]
        grid[entry_at, 0] = heads[cols]
        grid[entry_at, 1], grid[entry_at, 2] = _row_names(
            model, np.searchsorted(model.indptr, terms, side="right") - 1)
        grid[entry_at, 3] = _fmt_each(model.coefs[terms], numbers, " %s\n")
        for v in np.flatnonzero(opens).tolist() + ([b - a] if closes else []):
            at = start[v] if v < b - a else len(grid) - 1
            kind = "'INTORG'" if v < b - a and binary[a + v] else "'INTEND'"
            grid[at] = ("    MARKER%d 'MARKER' " % marks, kind, "", "\n")
            marks += 1
        yield "".join(grid.ravel().tolist())
        a = b


def read_mps(path):
    with open(path) as fh:
        return _decode(fh, _MPSReader())


def parse_mps(text):
    return _decode(io.StringIO(text, newline=None), _MPSReader())


# the row types of the ROWS section: N is the objective, the others the
# sense codes of SENSES
_ROW_TYPES = {"N": -1, "L": 0, "E": 1, "G": 2}
# every byte but "." and "\n"
_NOT_DOT = bytes(sorted(set(range(256)) - set(b".\n")))
# a number below _POWERS[d] has at most d + 1 digits
_POWERS = 10 ** np.arange(1, 19)


def _written(names):
    """Split the names written ``<label>.<k>``, with one dot and k in plain
    decimal digits (no sign, no leading zero), into labels and ks, a block
    at a time.  Returns a mask of the names that hold a dot, their labels and
    ks, and the names without a dot; None when a name holds two dots or a k
    that is not plain digits."""
    m = len(names)
    text = "\n".join(names + [""])           # each name ends in "\n"
    # the text's dots and line ends: a name holds a dot if one precedes its
    # "\n"; a lone surrogate encodes to bytes of 0x80 and up, neither dot,
    # line end nor digit
    seps = np.frombuffer(text.encode("utf-8", "surrogatepass").translate(None, _NOT_DOT),
                         dtype=np.uint8)
    dotted = seps[np.flatnonzero(seps == 10) - 1] == 46
    count = int(dotted.sum())
    if len(seps) - m != count:
        return None
    parts = text.replace(".", "\n").split("\n")
    if count == m:
        labels, digits, others = parts[0:-1:2], parts[1::2], []
    else:
        parts = _objects(parts)
        first = np.arange(m) + np.cumsum(dotted) - dotted   # each name's first part
        labels = parts[first[dotted]].tolist()
        digits = parts[first[dotted] + 1].tolist()
        others = parts[first[~dotted]].tolist()
    if not count:
        return dotted, labels, np.zeros(0, dtype=np.int64), others
    digits = " ".join(digits)
    if digits.encode("utf-8", "surrogatepass").translate(None, b"0123456789 "):
        return None
    k = np.fromstring(digits, dtype=np.int64, sep=" ")
    # a missing k reads fewer numbers; a leading zero or an overflow spends
    # more digits than k needs
    if (len(k) != count or len(digits) - count + 1
            != (np.searchsorted(_POWERS, k, side="right") + 1).sum()):
        return None
    return dotted, labels, k, others


class _MPSReader:
    """The MPS decoder: the section it is in and what it has read so far.
    Rows are declared before the columns name them, and columns before the
    RHS, BOUNDS and QUADOBJ sections do, so every name resolves as it is
    read.  A line that starts with ``*`` is a comment, wherever it is.

    A written file names row k ``<label>.<k>``.  While every row name has
    that form, a reference decodes to its row by ``_written`` and a check
    that row k has that label, and no table of row names is kept; the first
    name that does not builds the table (``table``), which then serves the
    rest of the file."""

    # any line that starts with a character other than a blank or "*"
    HEADER = re.compile(r"\n([^\s*][^\n]*)")
    COMMENT = re.compile(r"^\*[^\n]*", re.M)

    def __init__(self):
        self.name = "model"
        self.section = None
        self.rows = None                     # row name -> row, once it is needed
        # the names outside <label>.<k>: the marker, objective rows (-1)
        self.special = {"'MARKER'": -2}
        self.sense, self.label = array("b"), array("q")
        self.labels = {}                     # label -> id
        self.columns = {}                    # column name -> column
        self.binary = array("b")
        self.in_int = False                  # inside an integer marker run
        self.var_of, self.row_of, self.values = array("i"), array("i"), array("d")
        self.rhs_of, self.rhs = array("q"), array("d")
        self.lo, self.hi = [], []
        self.inverted = {}                   # column -> BOUNDS line inverting it
        self.quadratic = []                  # (column, column, value)

    def header(self, text, line):
        toks = text.split()
        if toks[0] == "NAME" and len(toks) > 1:
            self.name = toks[1]
        elif toks[0] not in self.SECTIONS and toks[0] not in ("NAME", "ENDATA"):
            raise EmitError("line %d: unsupported MPS section %r" % (line, toks[0]))
        self.section = toks[0]

    def body(self, text, line):
        read = self.SECTIONS.get(self.section)
        if read is not None:
            # a comment leaves its line blank, so line numbers still count
            read(self, self.COMMENT.sub("", text) if "*" in text else text, line)

    def table(self):
        """The row of each row name (objective rows -1, the marker -2): the
        ``rows`` dict, built from the labels and positions on first use."""
        if self.rows is None:
            heads = _objects(label + "." for label in self.labels)
            names = heads[np.frombuffer(self.label, dtype=np.int64)].tolist()
            self.rows = dict(self.special)
            self.rows.update(zip(map(str.__add__, names, map(str, range(len(names)))),
                                 range(len(names))))
        return self.rows

    def _rows(self, text, line):
        toks = text.split()
        tags, names = toks[0::2], toks[1::2]
        if len(toks) % 2 or not set(tags) <= _ROW_TYPES.keys():
            raise _locate(text, line, lambda t: (
                "ROWS lines must be '<type> <name>'" if len(t) != 2
                else "unknown row type %r" % t[0] if t[0] not in _ROW_TYPES else None))
        objective = []
        if "N" in tags:
            objective = [name for tag, name in zip(tags, names) if tag == "N"]
            names = [name for tag, name in zip(tags, names) if tag != "N"]
            tags = [tag for tag in tags if tag != "N"]
        start = len(self.sense)
        split = _written(names) if self.rows is None else None
        # while each name is written <label>.<k> with k its row, no name is
        # kept; an objective name with no dot cannot equal a row name
        if (split is not None and split[0].all()
                and np.array_equal(split[2], np.arange(start, start + len(names)))
                and "." not in "".join(objective) and len(set(objective)) == len(objective)
                and self.special.keys().isdisjoint(objective)):
            self.special.update(zip(objective, repeat(-1)))
            labels = split[1]
        else:
            rows = self.table()
            known = len(rows)
            rows.update(zip(objective, repeat(-1)))
            rows.update(zip(names, range(start, start + len(names))))
            if len(rows) - known < len(toks) // 2:
                # a name declared again keeps its first place in the dict
                seen = set(islice(rows, known))

                def twice(t):
                    if t[1] in seen:
                        return "ROWS declares %r twice" % t[1]
                    seen.add(t[1])

                raise _locate(text, line, twice)
            labels = [name.rpartition(".")[0] for name in names]
        self.sense.extend(map(_ROW_TYPES.__getitem__, tags))
        self.label.frombytes(_ids(labels, self.labels).tobytes())

    def _row_ids(self, refs):
        """The row each of ``refs`` names: -1 for an objective row, -2 for a
        marker and -3 for a name no row has."""
        if self.rows is None:
            split = _written(refs)
            if split is not None:
                dotted, labels, k, others = split
                row_label = np.frombuffer(self.label, dtype=np.int64)
                if (k.max(initial=-1) < len(row_label) and labels
                        == _objects(self.labels)[row_label[k]].tolist()):
                    rows = np.empty(len(refs), dtype=np.int64)
                    rows[dotted] = k
                    rows[~dotted] = np.fromiter(map(self.special.get, others, repeat(-3)),
                                                np.int64, len(others))
                    return rows
        return np.fromiter(map(self.table().get, refs, repeat(-3)), np.int64, len(refs))

    def _columns(self, text, line):
        """"<column> <row> <value>" lines and "<name> 'MARKER' <tag>" lines,
        decoded together; each column's kind is set where it first appears."""
        toks = text.split()
        rows = None if len(toks) % 3 else self._row_ids(toks[1::3])
        if rows is None or rows.min(initial=0) < -2:
            raise _locate(text, line, lambda t: (
                "COLUMNS lines must be '<column> <row> <value>'" if len(t) != 3
                else "COLUMNS names unknown row %r" % t[1] if t[1] not in self.table()
                else None))
        marks = np.flatnonzero(rows == -2)
        entry = np.flatnonzero(rows != -2)
        # an entry is integer when the last marker before it opened a run
        tags = toks[2::3]
        opened = np.array([self.in_int] + [tags[m] == "'INTORG'" for m in marks.tolist()])
        inside = opened[np.searchsorted(marks, entry)]
        self.in_int = bool(opened[-1])
        names = _objects(toks[0::3])[entry].tolist()
        known = len(self.columns)
        v = _ids(names, self.columns)
        seen = np.maximum.accumulate(np.concatenate(([known - 1], v)))
        self.binary.frombytes(inside[v > seen[:-1]].tobytes())
        _append(self.var_of, v.astype(np.intc))
        _append(self.row_of, rows[entry].astype(np.intc))
        try:
            values = np.fromiter(map(float, _objects(tags)[entry].tolist()), float,
                                 len(entry))
            if not np.isfinite(values).all():
                raise ValueError
        except ValueError:
            raise _locate(text, line, lambda t: None if t[1] == "'MARKER'" else (
                _not_finite(t[2]))) from None
        self.values.frombytes(values.tobytes())

    def _rhs(self, text, line):
        toks = text.split()
        try:
            if len(toks) % 3:
                raise ValueError
            rows = self._row_ids(toks[1::3])
            if rows.min(initial=0) < -1:
                raise ValueError
            values = np.fromiter(map(float, toks[2::3]), float, len(rows))
            if not np.isfinite(values).all():
                raise ValueError
        except ValueError:
            raise _locate(text, line, lambda t: (
                "RHS lines must be '<set> <row> <value>'" if len(t) != 3
                else "RHS names unknown row %r" % t[1] if self.table().get(t[1], -2) < -1
                else _not_finite(t[2]))) from None
        self.rhs_of.frombytes(rows.tobytes())
        self.rhs.frombytes(values.tobytes())

    def _bounds(self, text, line):
        nv = len(self.columns)
        lo, hi = self.lo, self.hi
        lo += [0.0] * (nv - len(lo))
        hi += [INF] * (nv - len(hi))
        for k, ln in enumerate(text.split("\n"), line):
            t = ln.split()
            if not t:
                continue
            if len(t) < 3:
                raise EmitError("line %d: bad BOUNDS line %r" % (k, ln.strip()))
            j = self.columns.get(t[2])
            if j is None:
                raise EmitError("line %d: BOUNDS names unknown column %r" % (k, t[2]))
            tag = t[0]
            if tag == "FR":
                lo[j], hi[j] = -INF, INF
            elif tag == "MI":
                lo[j] = -INF
            elif tag in ("FX", "LO", "UP") and len(t) == 4:
                if _not_a_number(t[3]):
                    raise EmitError("line %d: %s" % (k, _not_a_number(t[3])))
                value = float(t[3])
                if math.isnan(value):
                    raise EmitError("line %d: a bound of %r is NaN" % (k, t[2]))
                if tag != "UP":
                    lo[j] = value
                if tag != "LO":
                    hi[j] = value
                # the line that leaves a pair inverted, for the error;
                # binaries are held to [0, 1] (see ``model``)
                if lo[j] > hi[j] or (lo[j] > 1.0 or hi[j] < 0.0) and self.binary[j]:
                    self.inverted[j] = k
            elif tag in ("FR", "MI", "FX", "LO", "UP"):
                raise EmitError("line %d: bad BOUNDS line %r" % (k, ln.strip()))
            else:
                raise EmitError("line %d: unsupported bound tag %r" % (k, tag))

    def _quadratic(self, text, line):
        for k, ln in enumerate(text.split("\n"), line):
            t = ln.split()
            if t:
                if len(t) != 3 or t[0] not in self.columns or t[1] not in self.columns:
                    raise EmitError("line %d: QUADOBJ lines must be "
                                    "'<column> <column> <value>' of known columns" % k)
                self.quadratic.append((self.columns[t[0]], self.columns[t[1]],
                                       _finite(t[2], k)))

    SECTIONS = {"ROWS": _rows, "COLUMNS": _columns, "RHS": _rhs, "BOUNDS": _bounds,
                "QUADOBJ": _quadratic}

    def model(self):
        model = ModelIR(self.name)
        columns, nv = self.columns, len(self.columns)
        self.rows = self.special = self.columns = None     # the name tables are spent
        binary = np.frombuffer(self.binary, dtype=bool)
        lo = np.array(self.lo + [0.0] * (nv - len(self.lo)))
        hi = np.array(self.hi + [INF] * (nv - len(self.hi)))
        # binaries default to [0, 1], and their bounds stay inside it
        lo = np.where(binary, np.maximum(lo, 0.0), lo)
        hi = np.where(binary, np.minimum(hi, 1.0), hi)
        try:
            # the column table numbers the names in order: the model keeps it
            model.add_variables(columns, lo, hi, binary)
        except InvertedBoundsError:
            j = int(np.argmax(lo > hi))
            raise EmitError(_inverted(self.inverted[j], list(columns)[j],
                                      lo[j], hi[j])) from None

        # objective entries in column order, rows with their terms in column order
        var_of = np.frombuffer(self.var_of, dtype=np.intc)
        row_of = np.frombuffer(self.row_of, dtype=np.intc)
        n = len(self.sense)
        # the objective's entries (row -1) count in slot 0
        counts = np.bincount(row_of + 1, minlength=n + 1)
        values = np.frombuffer(self.values)
        on_obj = np.flatnonzero((row_of == -1) & (values != 0))
        for j in on_obj[np.argsort(var_of[on_obj], kind="stable")].tolist():
            model.add_objective_linear(float(values[j]), model.ref(int(var_of[j])))
        # the row entries, row by row, after the objective's
        order = np.lexsort((var_of, row_of))[counts[0]:]
        del row_of
        self.row_of = None
        coefs = values[order]
        del values
        self.values = None
        # int64, the columns' dtype in the model, so add_rows takes them as they are
        cols = var_of[order].astype(np.int64)
        del var_of, order
        self.var_of = None
        rhs = np.zeros(n + 1)
        rhs[np.frombuffer(self.rhs_of, dtype=np.int64) + 1] = np.frombuffer(self.rhs)
        model.add_rows(np.cumsum(counts) - counts[0], cols, coefs, self.sense, rhs[1:],
                       self.label, list(self.labels))
        for i, j, q in self.quadratic:
            model.add_objective_quadratic(q / 2.0, model.ref(i), model.ref(j))
        model.add_objective_constant(float(-rhs[0]))
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
    """Write ``asg``, a ``<name> <value>`` line per variable after the
    optional ``# objective`` and ``# gap`` headers, to ``path`` a chunk at a
    time; returns the byte count."""
    return _write(_solution_chunks(model, model._own(asg), objective, gap), path)


def _solution_chunks(model, x, objective, gap):
    if objective is not None:
        yield "# objective %s\n" % fmt(objective)
    if gap is not None:
        yield "# gap %s\n" % fmt(gap)
    # values are mostly distinct: a chunk's numbers are formatted and forgotten
    for a, b in _spans(len(x)):
        yield "".join((_objects(model.names[a:b])
                       + _fmt_each(x[a:b], _Numbers(), " %s\n")).tolist())


def read_solution(model, path, fill_missing=False, tol=1e-6):
    """Whitespace-separated name/value lines; ``#`` comments; optional
    ``# objective <v>`` / ``# gap <v>`` headers.  A repeated name, a value
    that is not a finite number or a header value that is not a number is an
    error.  Binaries within tol of an integer are rounded; anything farther
    off is left for the audit to flag."""
    objective = None
    gap = None
    x = [None] * len(model.names)
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            s = ln.strip()
            if not s:
                continue
            if s.startswith("#"):
                toks = s[1:].split()
                if len(toks) == 2 and toks[0] in ("objective", "gap"):
                    if _not_a_number(toks[1]):
                        raise SolutionError("%s:%d: %s %s" % (
                            path, lineno, toks[0], _not_a_number(toks[1])))
                    if toks[0] == "objective":
                        objective = float(toks[1])
                    else:
                        gap = float(toks[1])
                continue
            toks = s.split()
            if len(toks) != 2:
                raise SolutionError("%s:%d: expected 'name value'" % (path, lineno))
            name, val = toks
            k = model.var_index.get(name)
            if k is None:
                raise SolutionError("%s:%d: unknown variable %r" % (path, lineno, name))
            if x[k] is not None:
                raise SolutionError("%s:%d: repeated variable %r" % (path, lineno, name))
            try:
                value = float(val)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise SolutionError("%s:%d: value %r of %r is not a finite number"
                                    % (path, lineno, val, name))
            x[k] = value
    if None in x:
        if not fill_missing:
            raise SolutionError("%s: no value for %r"
                                % (path, model.names[x.index(None)]))
        x = [0.0 if v is None else v for v in x]
    x = round_binaries(model, np.array(x), tol)
    return SolutionFile(assignment=Assignment(model, x), objective=objective, gap=gap)


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
    """Predicted binary-variable counts without building the model: per
    sample a ReLU indicator per unit of each hidden tensor and a pool
    selector per unit of each pooled one; the switches; and in
    train-quantized mode ``bits`` digits per weight and quantized bias."""
    tensors = param_tensors(arch)
    out = {"delta": n * sum(math.prod(t.units) for t in tensors[:-1]),
           "gamma": len({g for t in tensors for g in t.gates}),
           "zeta": n * sum(math.prod(t.units) for t in tensors if t.pool is not None)}
    if hyper is not None and hyper.mode == TRAIN_QUANTIZED:
        wcount = sum(math.prod(t.shape) for t in tensors)
        bcount = sum(t.shape[0] for t in tensors) if hyper.quantize_biases else 0
        out["digits"] = hyper.bits * (wcount + bcount)
    return out
