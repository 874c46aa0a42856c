"""Solver-agnostic model IR: typed variables, linear constraints, quadratic objective.

Variables and constraints are stored append-only in insertion order so that two
builds of the same input produce byte-identical emitted files.  A model must be
frozen before emission; a frozen model is immutable and safe to share between
emitters, auditors and solvers.
"""

import math
from dataclasses import dataclass, field

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="

# Default feasibility / integrality tolerance used throughout.
DEFAULT_TOL = 1e-6


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


@dataclass(frozen=True)
class VarRef:
    """Stable handle to a variable of one model."""
    model_id: int
    index: int
    name: str


@dataclass
class LinCon:
    terms: list          # list of (coef, VarRef)
    sense: str           # one of LE, EQ, GE
    rhs: float
    label: str


@dataclass
class Objective:
    linear: list = field(default_factory=list)      # (coef, VarRef)
    quadratic: list = field(default_factory=list)   # (coef, VarRef, VarRef), name-ordered
    constant: float = 0.0


@dataclass
class Assignment:
    values: dict         # variable name -> float


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
        self.variables = []          # [VarDef]
        self.var_index = {}          # name -> index
        self.constraints = []        # [LinCon]
        self.bilinear_constraints = []   # [(quad_terms, lin_terms, sense, rhs, label)]
        self.objective = Objective()
        self.frozen = False

    # -- construction -----------------------------------------------------

    def _check_mutable(self):
        if self.frozen:
            raise FrozenModelError("model is frozen")

    def add_variable(self, vdef):
        self._check_mutable()
        if vdef.name in self.var_index:
            raise DuplicateNameError(vdef.name)
        if vdef.kind == BINARY:
            vdef = VarDef(vdef.name, BINARY, 0.0, 1.0)
        if vdef.lo > vdef.hi:
            raise InvertedBoundsError(
                "%s: lo %r > hi %r" % (vdef.name, vdef.lo, vdef.hi))
        idx = len(self.variables)
        self.variables.append(vdef)
        self.var_index[vdef.name] = idx
        return VarRef(self.model_id, idx, vdef.name)

    def var(self, name):
        idx = self.var_index.get(name)
        if idx is None:
            raise MissingVariableError(name)
        return VarRef(self.model_id, idx, name)

    def _check_refs(self, refs):
        for r in refs:
            if r.model_id != self.model_id:
                raise ForeignVariableError(r.name)

    def add_linear_constraint(self, con):
        self._check_mutable()
        self._check_refs(r for _, r in con.terms)
        merged = _merge_terms(con.terms)
        self.constraints.append(LinCon(merged, con.sense, con.rhs, con.label))
        return len(self.constraints) - 1

    def add_constraint(self, terms, sense, rhs, label):
        return self.add_linear_constraint(LinCon(list(terms), sense, rhs, label))

    def add_bilinear_constraint(self, quad_terms, lin_terms, sense, rhs, label):
        self._check_mutable()
        self._check_refs(r for _, r in lin_terms)
        for _, r1, r2 in quad_terms:
            self._check_refs((r1, r2))
        quad = [_order_pair(c, r1, r2) for c, r1, r2 in quad_terms]
        self.bilinear_constraints.append(
            (quad, _merge_terms(lin_terms), sense, rhs, label))

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
        self.objective.linear = _merge_terms(self.objective.linear)
        self.objective.quadratic = _merge_quadratic(self.objective.quadratic)
        self.frozen = True
        return self

    # -- queries ----------------------------------------------------------

    def binaries(self):
        return [v for v in self.variables if v.kind == BINARY]

    def set_bounds(self, name, lo, hi):
        """Tighten a variable's bounds in place (pre-freeze only)."""
        self._check_mutable()
        idx = self.var_index.get(name)
        if idx is None:
            raise MissingVariableError(name)
        v = self.variables[idx]
        if lo > hi:
            raise InvertedBoundsError("%s: lo %r > hi %r" % (name, lo, hi))
        self.variables[idx] = VarDef(v.name, v.kind, lo, hi)

    # -- evaluation -------------------------------------------------------

    def evaluate_objective(self, values):
        obj = self.objective.constant
        for c, r in self.objective.linear:
            obj += c * values[r.name]
        for c, r1, r2 in self.objective.quadratic:
            obj += c * values[r1.name] * values[r2.name]
        return obj

    def evaluate_assignment(self, asg, tol=DEFAULT_TOL):
        """Audit an assignment: constraint violations, bounds, integrality, objective."""
        values = asg.values
        for v in self.variables:
            if v.name not in values:
                raise MissingVariableError(v.name)

        max_by_label = {}
        violations = []

        def record(label, index, amount):
            if amount > max_by_label.get(label, 0.0):
                max_by_label[label] = amount
            if amount > tol:
                violations.append(Violation(label, index, amount))

        for i, con in enumerate(self.constraints):
            lhs = sum(c * values[r.name] for c, r in con.terms)
            record(con.label, i, _violation(lhs, con.sense, con.rhs))
        for i, (quad, lin, sense, rhs, label) in enumerate(self.bilinear_constraints):
            lhs = sum(c * values[r.name] for c, r in lin)
            lhs += sum(c * values[r1.name] * values[r2.name] for c, r1, r2 in quad)
            record(label, i, _violation(lhs, sense, rhs))

        integrality = []
        for v in self.variables:
            x = values[v.name]
            if not math.isfinite(x):
                integrality.append((v.name, x))
                continue
            if x < v.lo - tol or x > v.hi + tol:
                record("bounds:" + v.name.split("[")[0], -1,
                       max(v.lo - x, x - v.hi))
            if v.kind == BINARY and min(abs(x), abs(x - 1.0)) > tol:
                integrality.append((v.name, x))

        return AuditReport(
            objective=self.evaluate_objective(values),
            max_violation_by_label=max_by_label,
            violations=violations,
            integrality_violations=integrality,
            tol=tol,
        )


def _violation(lhs, sense, rhs):
    if sense == LE:
        return max(0.0, lhs - rhs)
    if sense == GE:
        return max(0.0, rhs - lhs)
    return abs(lhs - rhs)


def _merge_terms(terms):
    by_index = {}
    order = []
    for c, r in terms:
        if r.index not in by_index:
            by_index[r.index] = [c, r]
            order.append(r.index)
        else:
            by_index[r.index][0] += c
    return [(c, r) for c, r in (by_index[i] for i in order)]


def _order_pair(coef, r1, r2):
    if r2.name < r1.name:
        r1, r2 = r2, r1
    return (coef, r1, r2)


def _merge_quadratic(terms):
    by_key = {}
    order = []
    for c, r1, r2 in terms:
        key = (r1.index, r2.index)
        if key not in by_key:
            by_key[key] = [c, r1, r2]
            order.append(key)
        else:
            by_key[key][0] += c
    return [(c, r1, r2) for c, r1, r2 in (by_key[k] for k in order)]


def round_binaries(model, values, tol=DEFAULT_TOL):
    """Snap near-integral binary values onto {0,1}; leave others untouched."""
    out = dict(values)
    for v in model.variables:
        if v.kind == BINARY and v.name in out:
            x = out[v.name]
            if abs(x) <= tol:
                out[v.name] = 0.0
            elif abs(x - 1.0) <= tol:
                out[v.name] = 1.0
    return out
