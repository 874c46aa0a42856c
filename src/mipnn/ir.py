"""Solver-agnostic model IR: typed variables, linear constraints, quadratic objective.

Variables and constraints are stored append-only in insertion order so that two
builds of the same input produce byte-identical emitted files.  A model must be
frozen before emission; a frozen model is immutable and safe to share between
emitters, auditors and solvers.

Storage is columnar.  Variables are a list of ``names`` and the arrays ``lo``,
``hi`` and ``is_binary``.  Linear rows are one CSR matrix (``indptr``, ``cols``,
``coefs``) with a ``sense`` code, a ``rhs`` and a ``row_label`` id (into
``labels``) per row.  A model keeps the arrays its first ``add_rows`` call is
given, so one copy of the terms exists; later calls append to ``array``
buffers.  ``freeze`` turns either into read-only numpy arrays.  No object is
kept per row or per variable, so a large model puts no load on the garbage
collector.  Every pass over the whole model (the repeat check of
``add_rows``, ``row_violations``, ``max_abs_coef_by_label``) works in chunks
of ``_ROWS`` rows, so its temporaries stay bounded whatever the model's size.
``variables`` and ``constraints`` are read-only views that build a ``VarDef``
or a ``LinCon`` on each access.
"""

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="
# a row's sense code is its index here
SENSES = (LE, EQ, GE)
_SENSE_CODE = {s: k for k, s in enumerate(SENSES)}
_LE, _EQ, _GE = range(3)

# Default feasibility / integrality tolerance used throughout.
DEFAULT_TOL = 1e-6

# rows per chunk of a pass over the whole model
_ROWS = 2 ** 12
# the arrays that hold the rows
_ROW_ARRAYS = ("indptr", "cols", "coefs", "sense", "rhs", "row_label")


class ModelError(Exception):
    pass


class DuplicateNameError(ModelError):
    pass


class InvertedBoundsError(ModelError):
    pass


class ForeignVariableError(ModelError):
    pass


class MissingVariableError(ModelError):
    pass


class FrozenModelError(ModelError):
    pass


@dataclass(frozen=True)
class VarDef:
    name: str
    kind: str = CONTINUOUS
    lo: float = float("-inf")
    hi: float = float("inf")


class VarRef(NamedTuple):
    """Stable handle to a variable of one model."""
    model_id: int
    index: int
    name: str


_tuple_new = tuple.__new__


@dataclass
class LinCon:
    """One linear row, as the ``constraints`` view presents it."""
    terms: list          # list of (coef, VarRef)
    sense: str           # one of LE, EQ, GE
    rhs: float
    label: str


@dataclass
class Objective:
    linear: list = field(default_factory=list)      # (coef, VarRef)
    quadratic: list = field(default_factory=list)   # (coef, VarRef, VarRef), name-ordered
    constant: float = 0.0


@dataclass(eq=False)
class Assignment:
    """A value per variable of ``model``: ``x[k]`` is the value of
    ``model.names[k]``.  ``values`` views it by name."""
    model: "ModelIR"
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)

    @property
    def values(self):
        return _Values(self.model, self.x)


class _Values(Mapping):
    """Read-only view: an assignment's values as Python floats by name."""

    def __init__(self, model, x):
        self._model, self._x = model, x

    def __getitem__(self, name):
        return float(self._x[self._model.var_index[name]])

    def __iter__(self):
        return iter(self._model.names)

    def __len__(self):
        return len(self._model.names)


@dataclass
class Violation:
    label: str
    constraint_index: int
    amount: float


@dataclass
class AuditReport:
    objective: float
    max_violation_by_label: dict     # label -> worst absolute violation
    violations: list                 # [Violation] beyond tolerance
    integrality_violations: list     # [(name, value)] binaries off {0,1}, NaN, inf
    tol: float

    @property
    def ok(self):
        return not self.violations and not self.integrality_violations

    @property
    def max_violation(self):
        if not self.max_violation_by_label:
            return 0.0
        return max(self.max_violation_by_label.values())


class _Variables(Sequence):
    """Read-only view: the model's variables as ``VarDef``s."""

    def __init__(self, model):
        self._m = model

    def __len__(self):
        return len(self._m.names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        m = self._m
        return VarDef(m.names[i], BINARY if m.is_binary[i] else CONTINUOUS,
                      float(m.lo[i]), float(m.hi[i]))


class _Constraints(Sequence):
    """Read-only view: the model's linear rows as ``LinCon``s."""

    def __init__(self, model):
        self._m = model

    def __len__(self):
        return len(self._m.sense)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        m = self._m
        i = range(len(self))[i]
        terms = [(float(m.coefs[k]), m.ref(int(m.cols[k])))
                 for k in range(m.indptr[i], m.indptr[i + 1])]
        return LinCon(terms, SENSES[m.sense[i]], float(m.rhs[i]),
                      m.labels[m.row_label[i]])


class ModelIR:
    """A mixed-integer program with linear constraints and a quadratic objective.

    Bilinear (continuous x continuous) products inside constraints are kept in a
    separate list so emitters that cannot express them can refuse honestly.
    """

    _next_id = 0

    def __init__(self, name="model"):
        self.name = name
        self.model_id = ModelIR._next_id
        ModelIR._next_id += 1
        self.names = []              # variable names in insertion order
        self.var_index = {}          # name -> index
        self.lo = array("d")
        self.hi = array("d")
        self.is_binary = array("b")
        self.indptr = array("q", [0])
        self.cols = array("q")
        self.coefs = array("d")
        self.sense = array("b")      # index into SENSES
        self.rhs = array("d")
        self.row_label = array("i")  # index into labels
        self.labels = []             # in order of first use
        self._label_ids = {}
        self.bilinear_constraints = []   # [(quad_terms, lin_terms, sense, rhs, label)]
        self.objective = Objective()
        self.frozen = False

    @property
    def variables(self):
        return _Variables(self)

    @property
    def constraints(self):
        return _Constraints(self)

    # -- construction -----------------------------------------------------

    def _check_mutable(self):
        if self.frozen:
            raise FrozenModelError("model is frozen")

    def add_variable(self, vdef):
        self._check_mutable()
        name = vdef.name
        if name in self.var_index:
            raise DuplicateNameError(name)
        binary = vdef.kind == BINARY
        lo, hi = (0.0, 1.0) if binary else (vdef.lo, vdef.hi)
        if lo > hi:
            raise InvertedBoundsError("%s: lo %r > hi %r" % (name, lo, hi))
        idx = len(self.names)
        self.names.append(name)
        self.var_index[name] = idx
        self.lo.append(lo)
        self.hi.append(hi)
        self.is_binary.append(binary)
        return VarRef(self.model_id, idx, name)

    def add_variables(self, names, lo, hi, is_binary):
        """Append many variables at once and return their columns; ``lo``,
        ``hi`` and ``is_binary`` broadcast over ``names``, and the bounds are
        taken as given, binaries included.  ``names`` may also be a dict that
        numbers them from the model's variable count on, in order, as
        ``var_index`` does; a model with no variables yet keeps that dict, or
        the one it builds, as its ``var_index``."""
        self._check_mutable()
        count = len(names)
        lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), count) for v in (lo, hi))
        bad = np.flatnonzero(lo > hi)
        if bad.size:
            k = int(bad[0])
            raise InvertedBoundsError("%s: lo %r > hi %r"
                                      % (list(names)[k], float(lo[k]), float(hi[k])))
        start = len(self.names)
        new = (names if isinstance(names, dict)
               else dict(zip(names, range(start, start + count))))
        if len(new) < count or not new.keys().isdisjoint(self.var_index):
            seen = set(self.var_index)
            raise DuplicateNameError(next(n for n in names
                                          if n in seen or seen.add(n)))
        if self.var_index:
            self.var_index.update(new)
        else:
            self.var_index = new
        self.names.extend(names)
        _append(self.lo, lo)
        _append(self.hi, hi)
        _append(self.is_binary,
                np.broadcast_to(np.asarray(is_binary, dtype=np.int8), count))
        return np.arange(start, start + count)

    def var(self, name):
        idx = self.var_index.get(name)
        if idx is None:
            raise MissingVariableError(name)
        # VarRef(...) without the Python-level __new__ of a NamedTuple
        return _tuple_new(VarRef, (self.model_id, idx, name))

    def ref(self, index):
        return _tuple_new(VarRef, (self.model_id, index, self.names[index]))

    def _check_refs(self, refs):
        for r in refs:
            if r.model_id != self.model_id:
                raise ForeignVariableError(r.name)

    def _label_id(self, label):
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def add_constraint(self, terms, sense, rhs, label):
        """Append the row sum(coef * var) <sense> rhs through ``add_rows``
        and return its index."""
        self._check_mutable()
        terms = list(terms)
        self._check_refs(r for _, r in terms)
        self.add_rows([0, len(terms)], [r.index for _, r in terms],
                      [c for c, _ in terms], [_sense_code(sense)], [rhs], [0], [label])
        return len(self.sense) - 1

    def add_rows(self, indptr, cols, coefs, sense, rhs, label, labels):
        """Append many rows at once: the CSR ``indptr``/``cols``/``coefs``
        (column indices of this model), and per row a sense code (an index
        into ``SENSES``), a rhs and a label id (an index into ``labels``,
        whose labels are taken up in that order).  Terms on the same
        variable merge into the first, their coefficients summed in order.
        A model with no rows yet keeps the arrays as its own, once they have
        its dtypes, so the caller hands them over; later rows are appended
        in one copy."""
        self._check_mutable()
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        coefs = np.ascontiguousarray(coefs, dtype=float)
        sense = np.ascontiguousarray(sense, dtype=np.int8)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        label = np.asarray(label)
        n = len(indptr) - 1
        if not (indptr[0] == 0 and indptr[-1] == len(cols) == len(coefs)
                and len(sense) == len(rhs) == len(label) == n
                and np.all(np.diff(indptr) >= 0)):
            raise ModelError("rows do not match their CSR arrays")
        if cols.size and (cols.min() < 0 or cols.max() >= len(self.names)):
            raise MissingVariableError("column index out of range")
        if n and (sense.min() < 0 or sense.max() >= len(SENSES)):
            raise ModelError("sense code out of range")
        if n and (label.min() < 0 or label.max() >= len(labels)):
            raise ModelError("label id out of range")
        indptr, cols, coefs = _merge_rows(indptr, cols, coefs)
        ids = np.array([self._label_id(name) for name in labels], dtype=np.int32)
        rows = [indptr, cols, coefs, sense, rhs, ids[label]]
        if len(self.sense):
            rows[0] = indptr[1:] + self.indptr[-1]
            rows = [_append(getattr(self, a), v) for a, v in zip(_ROW_ARRAYS, rows)]
        for attr, values in zip(_ROW_ARRAYS, rows):
            setattr(self, attr, values)

    def add_bilinear_constraint(self, quad_terms, lin_terms, sense, rhs, label):
        self._check_mutable()
        self._check_refs(r for _, r in lin_terms)
        for _, r1, r2 in quad_terms:
            self._check_refs((r1, r2))
        _sense_code(sense)
        quad = [_order_pair(c, r1, r2) for c, r1, r2 in quad_terms]
        self.bilinear_constraints.append(
            (quad, _merge(lin_terms), sense, rhs, label))

    def add_objective_linear(self, coef, ref):
        self._check_mutable()
        self._check_refs([ref])
        self.objective.linear.append((coef, ref))

    def add_objective_quadratic(self, coef, ref1, ref2):
        self._check_mutable()
        self._check_refs([ref1, ref2])
        self.objective.quadratic.append(_order_pair(coef, ref1, ref2))

    def add_objective_constant(self, c):
        self._check_mutable()
        self.objective.constant += c

    def freeze(self):
        if self.frozen:
            return self
        self.objective.linear = _merge(self.objective.linear)
        self.objective.quadratic = _merge(self.objective.quadratic)
        for attr, dtype in (("lo", float), ("hi", float), ("is_binary", bool),
                            ("indptr", np.int64), ("cols", np.int64),
                            ("coefs", float), ("sense", np.int8),
                            ("rhs", float), ("row_label", np.int32)):
            arr = np.frombuffer(getattr(self, attr), dtype=dtype)
            arr.flags.writeable = False
            setattr(self, attr, arr)
        self.frozen = True
        return self

    # -- queries ----------------------------------------------------------

    def set_bounds(self, name, lo, hi):
        """Tighten a variable's bounds in place (pre-freeze only)."""
        self._check_mutable()
        idx = self.var_index.get(name)
        if idx is None:
            raise MissingVariableError(name)
        if lo > hi:
            raise InvertedBoundsError("%s: lo %r > hi %r" % (name, lo, hi))
        self.lo[idx] = lo
        self.hi[idx] = hi

    def max_abs_coef_by_label(self):
        """The largest |coefficient| in the rows of each label: how large
        the big-M constants of each constraint family are."""
        best = np.zeros(len(self.labels))
        row_label, coefs = np.asarray(self.row_label), np.asarray(self.coefs)
        for a, b, terms, row in _chunks(self.indptr):
            np.maximum.at(best, row_label[a:b][row], np.abs(coefs[terms]))
        return dict(zip(self.labels, best.tolist()))

    # -- evaluation -------------------------------------------------------

    def assignment(self, values):
        """The Assignment that gives each variable its value in ``values``
        (variable name -> number); other names in ``values`` are ignored."""
        try:
            return Assignment(self, [values[n] for n in self.names])
        except KeyError:
            raise MissingVariableError(
                next(n for n in self.names if n not in values)) from None

    def _own(self, asg):
        """The vector of ``asg``, which must be an assignment of this model."""
        if asg.model is not self or asg.x.shape != (len(self.names),):
            raise ForeignVariableError("%d values of model %r given to model %r of %d"
                                       % (asg.x.size, asg.model.name, self.name,
                                          len(self.names)))
        return asg.x

    def row_violations(self, x, start=0):
        """The ``_violation`` of each row from ``start`` on at the variable
        vector ``x``.  Each lhs is summed term by term in stored order,
        starting from 0.0, as a plain left-to-right loop would."""
        coefs, cols = np.asarray(self.coefs), np.asarray(self.cols)
        rhs, sense = np.asarray(self.rhs), np.asarray(self.sense)
        out = np.empty(len(rhs) - start)
        for a, b, terms, row in _chunks(self.indptr, start):
            # 0 * inf and inf - inf give NaN silently, as Python floats do
            with np.errstate(invalid="ignore"):
                lhs = np.bincount(row, weights=coefs[terms] * x[cols[terms]],
                                  minlength=b - a)
                d = np.where(sense[a:b] == _GE, rhs[a:b] - lhs, lhs - rhs[a:b])
            # max(0.0, d) keeps 0.0 for a NaN d, as the scalar rule does
            out[a - start:b - start] = np.where(sense[a:b] == _EQ, np.abs(d),
                                                np.where(d > 0.0, d, 0.0))
        return out

    def evaluate_objective(self, x):
        """The objective at the variable vector ``x``, summed term by term
        from left to right in Python floats."""
        obj = self.objective.constant
        for c, r in self.objective.linear:
            obj += c * float(x[r.index])
        for c, r1, r2 in self.objective.quadratic:
            obj += c * float(x[r1.index]) * float(x[r2.index])
        return obj

    def evaluate_assignment(self, asg, tol=DEFAULT_TOL):
        """Audit an assignment: constraint violations, bounds, integrality, objective.

        Violations are listed rows first, in row order, then bilinear rows,
        then bounds in variable order; ``max_violation_by_label`` keeps its
        labels in the order their first positive violation appears.  NaN
        amounts count nowhere: a NaN value is reported as an integrality
        violation instead.  An assignment of another model, or of the wrong
        length, is refused with ForeignVariableError.
        """
        x = self._own(asg)
        labels = self.labels

        amount = self.row_violations(x)
        hit = np.flatnonzero(amount > 0.0)
        hit_labels = np.asarray(self.row_label)[hit]
        best = np.zeros(len(labels))
        np.maximum.at(best, hit_labels, amount[hit])
        max_by_label = {labels[k]: float(best[k])
                        for k in dict.fromkeys(hit_labels.tolist())}
        bad = np.flatnonzero(amount > tol)
        violations = [Violation(labels[k], i, a) for i, k, a in zip(
            bad.tolist(), np.asarray(self.row_label)[bad].tolist(),
            amount[bad].tolist())]

        def record(label, index, amount):
            if amount > max_by_label.get(label, 0.0):
                max_by_label[label] = amount
            if amount > tol:
                violations.append(Violation(label, index, amount))

        for i, (quad, lin, sense, rhs, label) in enumerate(self.bilinear_constraints):
            lhs = sum(c * float(x[r.index]) for c, r in lin)
            lhs += sum(c * float(x[r1.index]) * float(x[r2.index]) for c, r1, r2 in quad)
            record(label, i, _violation(lhs, sense, rhs))

        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        finite = np.isfinite(x)
        outside = finite & ((x < lo - tol) | (x > hi + tol))
        for k in np.flatnonzero(outside).tolist():
            v = float(x[k])
            record("bounds:" + self.names[k].split("[")[0], -1,
                   max(float(lo[k]) - v, v - float(hi[k])))
        with np.errstate(invalid="ignore"):
            fractional = np.minimum(np.abs(x), np.abs(x - 1.0)) > tol
        off = ~finite | (np.asarray(self.is_binary, dtype=bool) & fractional)
        integrality = [(self.names[k], float(x[k])) for k in np.flatnonzero(off).tolist()]

        return AuditReport(
            objective=self.evaluate_objective(x),
            max_violation_by_label=max_by_label,
            violations=violations,
            integrality_violations=integrality,
            tol=tol,
        )


def _sense_code(sense):
    try:
        return _SENSE_CODE[sense]
    except KeyError:
        raise ModelError("unknown constraint sense %r" % (sense,)) from None


def _violation(lhs, sense, rhs):
    if sense == LE:
        return max(0.0, lhs - rhs)
    if sense == GE:
        return max(0.0, rhs - lhs)
    return abs(lhs - rhs)


def _append(buffer, values):
    """``buffer`` with a numpy array appended, in the one copy that
    ``frombytes`` makes of a contiguous array's bytes.  A numpy array, as a
    model keeps from its first ``add_rows``, first becomes an ``array``
    buffer of its item type."""
    if isinstance(buffer, np.ndarray):
        buffer = _append(array(buffer.dtype.char), buffer)
    buffer.frombytes(np.ascontiguousarray(values).view(np.uint8))
    return buffer


def _chunks(indptr, start=0):
    """The rows of the CSR ``indptr`` from ``start`` on in chunks of
    ``_ROWS``: per chunk its first row and its end, the slice of its terms
    and the row of each of them, counted from the chunk's first."""
    indptr = np.asarray(indptr)
    n = len(indptr) - 1
    for a in range(start, n, _ROWS):
        b = min(a + _ROWS, n)
        yield (a, b, slice(indptr[a], indptr[b]),
               np.repeat(np.arange(b - a), np.diff(indptr[a:b + 1])))


def _merge_rows(indptr, cols, coefs):
    """Every row of a CSR matrix with its repeated columns merged into the
    first; the arrays as given when no row repeats a column.  A chunk whose
    rows' columns strictly ascend, as the MPS reader gives them, takes one
    pass."""
    later, first = [], []        # each repeated term and its first occurrence
    for a, b, terms, row in _chunks(indptr):
        c = cols[terms]
        ascending = c[1:] > c[:-1]
        # a row's first term may start below the last term of the row before it
        starts = indptr[a + 1:b] - terms.start
        ascending[starts[(starts > 0) & (starts < len(c))] - 1] = True
        if ascending.all():
            continue
        key = row * (int(c.max()) + 1) + c
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = key[1:] == key[:-1]
        if not repeat.any():
            continue
        run_start = np.flatnonzero(np.concatenate(([True], ~repeat)))
        run = np.cumsum(np.concatenate(([True], ~repeat))) - 1
        later.append(order[1:][repeat] + terms.start)
        first.append(order[run_start[run[1:][repeat]]] + terms.start)
    if not later:
        return indptr, cols, coefs
    later, first = np.concatenate(later), np.concatenate(first)
    # each repeated term adds, in stored order, into its first occurrence
    merged = coefs.copy()
    np.add.at(merged, first, coefs[later])
    keep = np.ones(len(cols), dtype=bool)
    keep[later] = False
    dropped = np.bincount(np.searchsorted(indptr, later, side="right") - 1,
                          minlength=len(indptr) - 1)
    return (np.concatenate(([0], np.cumsum(np.diff(indptr) - dropped))),
            cols[keep], merged[keep])


def _merge(terms):
    """The terms ``(coef, *refs)`` with every repeat of the same refs added,
    in order, into the coefficient of their first occurrence."""
    merged = {}
    for c, *refs in terms:
        key = tuple(r.index for r in refs)
        if key in merged:
            merged[key][0] += c
        else:
            merged[key] = [c, *refs]
    return [tuple(t) for t in merged.values()]


def _order_pair(coef, r1, r2):
    if r2.name < r1.name:
        r1, r2 = r2, r1
    return (coef, r1, r2)


def round_binaries(model, x, tol=DEFAULT_TOL):
    """The variable vector ``x`` with its binaries within ``tol`` of 0 or 1
    snapped onto them; every other value untouched."""
    binary = np.asarray(model.is_binary, dtype=bool)
    x = np.where(binary & (np.abs(x - 1.0) <= tol), 1.0, x)
    return np.where(binary & (np.abs(x) <= tol), 0.0, x)
