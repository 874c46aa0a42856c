"""The columnar model store against plain per-row references: the audit, the
LP/MPS round trip, the bulk construction paths and their errors."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mipnn
from mipnn.dense import BuildError
from mipnn.emit import lp_text, mps_text, parse_lp, parse_mps
from mipnn.ir import (BINARY, CONTINUOUS, EQ, GE, LE, SENSES,
                      DuplicateNameError, ForeignVariableError,
                      FrozenModelError, InvertedBoundsError, ModelError,
                      ModelIR, VarDef, _merge_rows, _violation)

from test_golden import BUILDS

SRC = os.path.dirname(os.path.dirname(mipnn.__file__))


def reference_audit(model, values, tol):
    """``evaluate_assignment`` written row by row, as the store used to run it."""
    max_by_label = {}
    violations = []

    def record(label, index, amount):
        if amount > max_by_label.get(label, 0.0):
            max_by_label[label] = amount
        if amount > tol:
            violations.append((label, index, amount))

    for i, con in enumerate(model.constraints):
        lhs = 0.0
        for c, r in con.terms:
            lhs += c * values[r.name]
        record(con.label, i, _violation(lhs, con.sense, con.rhs))
    for i, (quad, lin, sense, rhs, label) in enumerate(model.bilinear_constraints):
        lhs = sum(c * values[r.name] for c, r in lin)
        lhs += sum(c * values[r1.name] * values[r2.name] for c, r1, r2 in quad)
        record(label, i, _violation(lhs, sense, rhs))
    integrality = []
    for v in model.variables:
        x = values[v.name]
        if not math.isfinite(x):
            integrality.append((v.name, x))
            continue
        if x < v.lo - tol or x > v.hi + tol:
            record("bounds:" + v.name.split("[")[0], -1, max(v.lo - x, x - v.hi))
        if v.kind == BINARY and min(abs(x), abs(x - 1.0)) > tol:
            integrality.append((v.name, x))
    objective = model.objective.constant
    for c, r in model.objective.linear:
        objective += c * values[r.name]
    for c, r1, r2 in model.objective.quadratic:
        objective += c * values[r1.name] * values[r2.name]
    return list(max_by_label.items()), violations, integrality, objective


def _same(a, b):
    """Equal floats, or both NaN."""
    return a == b or (a != a and b != b)


def _assignments(build, rng, count):
    """Assignments over every variable: assembled candidates (where the
    build has them) and random values; after the first, with NaN, +-inf,
    out-of-bound and fractional binary values mixed in."""
    model = build.model
    for k in range(count):
        bits = {n: float(rng.integers(0, 2)) for n in build.structural}
        try:
            values = dict(build.assemble(bits)[0].values)
        except BuildError:      # bits that do not determine the net
            values = {n: float(rng.normal()) for n in model.names}
        for name in model.names if k else ():
            roll = rng.random()
            if roll < 0.02:
                values[name] = float(rng.choice([math.nan, math.inf, -math.inf]))
            elif roll < 0.06:
                values[name] += float(rng.choice([-5.0, 5.0, 0.5, 1e-7]))
        yield values


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_audit_matches_row_by_row_reference(name):
    build = BUILDS[name]()
    model = build.model.freeze()
    rng = np.random.default_rng(sum(map(ord, name)))
    for values in _assignments(build, rng, 6):
        for tol in (1e-6, 0.0):
            rep = model.evaluate_assignment(model.assignment(values), tol)
            labels, violations, integrality, objective = reference_audit(
                model, values, tol)
            assert list(rep.max_violation_by_label.items()) == labels
            assert [(v.label, v.constraint_index, v.amount)
                    for v in rep.violations] == violations
            assert len(rep.integrality_violations) == len(integrality)
            for (n1, x1), (n2, x2) in zip(rep.integrality_violations, integrality):
                assert n1 == n2 and _same(x1, x2)
            assert _same(rep.objective, objective)


@pytest.mark.parametrize("name", sorted(n for n in BUILDS if "bilinear" not in n))
def test_golden_builds_reemit_identically(name):
    model = BUILDS[name]().model.freeze()
    for write, parse in ((lp_text, parse_lp), (mps_text, parse_mps)):
        text = write(model)
        assert write(parse(text)) == text


def test_readers_merge_repeated_terms_in_order():
    lp = ("\\ Problem: m\nMinimize\n obj: 0\nSubject To\n"
          " c.0: 0.1 x + 2 y + 0.2 x - 0.3 x <= 5\n"
          "Bounds\n x free\n 0 <= y <= 1\nBinaries\n y\nEnd\n")
    con = parse_lp(lp).constraints[0]
    assert [(c, r.name) for c, r in con.terms] == [(0.1 + 0.2 - 0.3, "x"), (2.0, "y")]
    mps = ("NAME m\nROWS\n N OBJ\n L c.0\nCOLUMNS\n"
           "    x OBJ 0\n    x c.0 0.1\n    x c.0 0.2\n    y OBJ 0\n    y c.0 2\n"
           "RHS\n    RHS c.0 5\nBOUNDS\n FR BND x\n UP BND y 1\nENDATA\n")
    con = parse_mps(mps).constraints[0]
    assert [(c, r.name) for c, r in con.terms] == [(0.1 + 0.2, "x"), (2.0, "y")]
    assert (con.sense, con.rhs, con.label) == (LE, 5.0, "c")


# CSR rows and what the merge makes of them, recorded from the merge that
# sorted every call; None where the rows come back as given
MERGES = {
    "ascending": (([0, 2, 3, 5], [0, 2, 1, 0, 3], [1.0, 2.0, 3.0, 4.0, 5.0]), None),
    "unsorted": (([0, 3, 5], [2, 0, 1, 3, 1], [1.0, 2.0, 3.0, 4.0, 5.0]), None),
    # summed into the first occurrence in stored order: (0.1 + 0.2) + 0.3
    "repeats": (([0, 5, 8], [2, 0, 2, 1, 2, 3, 0, 3],
                 [0.1, 0.5, 0.2, 1.5, 0.3, 1.0, 2.0, 0.7]),
                ([0, 3, 5], [2, 0, 1, 3, 0], [0.6000000000000001, 0.5, 1.5, 1.7, 2.0])),
    # the empty rows' boundaries must not mask the last pair of terms
    "leading-empty": (([0, 0, 0, 3], [0, 2, 2], [0.5, 0.1, 0.2]),
                      ([0, 0, 0, 2], [0, 2], [0.5, 0.30000000000000004])),
    "trailing-empty": (([0, 2, 2], [1, 1], [0.25, 0.5]), ([0, 1, 1], [1], [0.75])),
}


@pytest.mark.parametrize("name", sorted(MERGES))
def test_merge_rows_and_add_rows_keep_the_recorded_merge(name):
    given, merged = MERGES[name]
    rows = [np.array(a, dtype=t) for a, t in zip(given, (np.int64, np.int64, float))]
    out = _merge_rows(*rows)
    if merged is None:
        assert all(a is b for a, b in zip(out, rows))
        merged = given
    assert [a.tolist() for a in out] == list(merged)
    m = ModelIR()
    m.add_variables(["x%d" % k for k in range(4)], 0.0, 1.0, False)
    n = len(given[0]) - 1
    m.add_rows(*given, [SENSES.index(LE)] * n, [1.0] * n, [0] * n, ["c"])
    m.freeze()
    assert [m.indptr.tolist(), m.cols.tolist(), m.coefs.tolist()] == list(merged)


def test_add_constraint_is_a_one_row_add_rows():
    m = ModelIR()
    x = [m.add_variable(VarDef("x%d" % k)) for k in range(3)]
    assert m.add_constraint([(0.1, x[2]), (1.0, x[0]), (0.2, x[2]), (0.3, x[2])],
                            LE, 4.0, "one") == 0
    assert m.add_constraint([(2.0, x[1])], GE, -1.0, "two") == 1
    m.freeze()
    assert m.indptr.tolist() == [0, 2, 3]
    assert m.cols.tolist() == [2, 0, 1]
    assert m.coefs.tolist() == [0.6000000000000001, 1.0, 2.0]
    assert (m.sense.tolist(), m.rhs.tolist(), m.labels) == (
        [SENSES.index(LE), SENSES.index(GE)], [4.0, -1.0], ["one", "two"])


def test_bulk_paths_reject_what_the_row_paths_reject():
    m = ModelIR()
    x = m.add_variable(VarDef("x"))
    with pytest.raises(DuplicateNameError):
        m.add_variables(["y", "x"], [0.0, 0.0], [1.0, 1.0], [False, False])
    with pytest.raises(DuplicateNameError):
        m.add_variables(["y", "y"], [0.0, 0.0], [1.0, 1.0], [False, False])
    with pytest.raises(InvertedBoundsError):
        m.add_variables(["y"], [2.0], [1.0], [False])
    assert m.names == ["x"] and len(m.var_index) == 1
    with pytest.raises(ForeignVariableError):
        m.add_objective_linear(1.0, ModelIR().add_variable(VarDef("z")))
    with pytest.raises(ModelError, match="sense code"):
        m.add_rows([0, 1], [0], [1.0], [3], [1.0], [0], ["c"])
    with pytest.raises(ModelError, match="label id"):
        m.add_rows([0, 1], [0], [1.0], [SENSES.index(EQ)], [1.0], [1], ["c"])
    assert m.labels == []
    m.add_rows([0, 2], [0, 0], [1.0, 2.0], [SENSES.index(EQ)], [1.0], [0], ["c"])
    assert [(c, r.name) for c, r in m.constraints[0].terms] == [(3.0, "x")]
    assert (m.constraints[0].sense, m.constraints[0].label) == (EQ, "c")
    m.freeze()
    with pytest.raises(FrozenModelError):
        m.add_rows([0, 1], [0], [1.0], [SENSES.index(LE)], [0.0], [0], ["c"])
    with pytest.raises(FrozenModelError):
        m.add_variables(["w"], [0.0], [1.0], [False])
    with pytest.raises(ValueError):
        m.coefs[0] = 5.0
    assert x.index == 0


def test_views_and_max_coefficients():
    m = ModelIR()
    x = m.add_variable(VarDef("x", CONTINUOUS, -1.0, 2.0))
    b = m.add_variable(VarDef("b", BINARY))
    m.add_constraint([(1.0, x), (-7.5, b)], LE, 0.0, "gate")
    m.add_constraint([(-3.0, x)], GE, -1.0, "cap")
    m.add_constraint([(2.0, x), (1.0, b)], LE, 4.0, "gate")
    m.freeze()
    assert [v.name for v in m.variables] == ["x", "b"]
    assert m.variables[-1] == VarDef("b", BINARY, 0.0, 1.0)
    rows = m.constraints[1:]
    assert [(r.label, r.sense, r.rhs) for r in rows] == [("cap", GE, -1.0),
                                                         ("gate", LE, 4.0)]
    assert m.max_abs_coef_by_label() == {"gate": 7.5, "cap": 3.0}


def test_import_loads_no_scipy():
    code = "import sys, mipnn; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


# a build and its emission load no numpy submodule beyond what importing
# mipnn loads: each one costs start-up time and resident memory
BUILD_AND_EMIT = """
import sys
import numpy as np
from mipnn import Dataset, DenseArch, Hyper, build_dense, propagate_bounds
from mipnn.emit import lp_text
X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
data = Dataset(inputs=X, targets=np.array([[0.0], [1.0], [1.0], [0.0]]))
arch = DenseArch(2, [2], 1)
bt = propagate_bounds(arch, X.min(0), X.max(0), -1.0, 1.0)
lp_text(build_dense(arch, data, Hyper(mode="train-quantized", bits=2), bt).model.freeze())
print(" ".join(m for m in ("numpy.ma", "numpy.char", "scipy") if m in sys.modules))
"""


def test_build_and_emit_load_no_extra_modules():
    out = subprocess.run([sys.executable, "-c", BUILD_AND_EMIT], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": SRC})
    assert out.stdout.strip() == ""
