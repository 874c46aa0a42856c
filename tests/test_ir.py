import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mipnn.ir import (BINARY, CONTINUOUS, EQ, GE, LE, Assignment,
                      DuplicateNameError, ForeignVariableError,
                      FrozenModelError, InvertedBoundsError,
                      MissingVariableError, ModelError, ModelIR, VarDef,
                      _violation, round_binaries)


def small_model():
    m = ModelIR("m")
    x = m.add_variable(VarDef("x", CONTINUOUS, 0.0, 10.0))
    y = m.add_variable(VarDef("y", BINARY))
    m.add_constraint([(1.0, x), (2.0, y)], LE, 5.0, "cap")
    m.add_objective_linear(1.0, x)
    return m, x, y


def test_duplicate_name_rejected():
    m = ModelIR()
    m.add_variable(VarDef("x"))
    with pytest.raises(DuplicateNameError):
        m.add_variable(VarDef("x"))


def test_inverted_bounds_rejected():
    m = ModelIR()
    with pytest.raises(InvertedBoundsError):
        m.add_variable(VarDef("x", CONTINUOUS, 1.0, 0.0))


def test_binary_bounds_forced():
    m = ModelIR()
    v = m.add_variable(VarDef("b", BINARY, -5.0, 5.0))
    stored = m.variables[v.index]
    assert (stored.lo, stored.hi) == (0.0, 1.0)


def test_foreign_ref_rejected():
    m1 = ModelIR()
    m2 = ModelIR()
    x1 = m1.add_variable(VarDef("x"))
    with pytest.raises(ForeignVariableError):
        m2.add_constraint([(1.0, x1)], LE, 0.0, "c")


def test_missing_variable_lookup():
    m = ModelIR()
    with pytest.raises(MissingVariableError):
        m.var("ghost")


def test_frozen_model_immutable():
    m, x, _ = small_model()
    m.freeze()
    with pytest.raises(FrozenModelError):
        m.add_variable(VarDef("z"))
    with pytest.raises(FrozenModelError):
        m.add_constraint([(1.0, x)], LE, 0.0, "c")
    with pytest.raises(FrozenModelError):
        m.set_bounds("x", 0.0, 1.0)


def test_term_merging():
    m = ModelIR()
    x = m.add_variable(VarDef("x"))
    y = m.add_variable(VarDef("y"))
    idx = m.add_constraint([(1.0, x), (2.0, y), (3.0, x)], EQ, 0.0, "c")
    terms = m.constraints[idx].terms
    assert [(c, r.name) for c, r in terms] == [(4.0, "x"), (2.0, "y")]


def test_rejected_row_leaves_the_store_as_it_was():
    m = ModelIR()
    x = m.add_variable(VarDef("x"))
    y = m.add_variable(VarDef("y"))
    other = ModelIR().add_variable(VarDef("z"))
    with pytest.raises(ModelError, match="unknown constraint sense"):
        m.add_constraint([(1.0, x)], "<", 3.0, "bad")
    with pytest.raises(ForeignVariableError):
        m.add_constraint([(1.0, y), (1.0, other)], LE, 3.0, "bad")
    assert len(m.indptr) - 1 == len(m.sense) == 0 and len(m.cols) == 0
    assert m.add_constraint([(2.0, y)], LE, 3.0, "ok") == 0
    assert len(m.indptr) - 1 == len(m.sense) == 1
    row = m.constraints[0]
    assert [(c, r.name) for c, r in row.terms] == [(2.0, "y")]
    assert (row.sense, row.rhs, row.label) == (LE, 3.0, "ok")
    assert m.labels == ["ok"]


def test_bilinear_sense_is_checked_before_storing():
    m = ModelIR()
    x = m.add_variable(VarDef("x", CONTINUOUS, 0.0, 1.0))
    y = m.add_variable(VarDef("y", CONTINUOUS, 0.0, 1.0))
    with pytest.raises(ModelError, match="unknown constraint sense"):
        m.add_bilinear_constraint([(1.0, x, y)], [(1.0, x)], "=<", 1.0, "prod")
    assert m.bilinear_constraints == []


def test_quadratic_pair_canonical_order():
    m = ModelIR()
    a = m.add_variable(VarDef("a"))
    b = m.add_variable(VarDef("b"))
    m.add_objective_quadratic(1.0, b, a)
    m.add_objective_quadratic(2.0, a, b)
    m.freeze()
    assert len(m.objective.quadratic) == 1
    c, r1, r2 = m.objective.quadratic[0]
    assert (c, r1.name, r2.name) == (3.0, "a", "b")


def test_evaluate_assignment_reports_violations():
    m, x, y = small_model()
    m.freeze()
    rep = m.evaluate_assignment(m.assignment({"x": 4.0, "y": 1.0}))
    assert not rep.ok
    assert rep.violations[0].label == "cap"
    assert rep.max_violation == pytest.approx(1.0)
    assert rep.objective == pytest.approx(4.0)

    rep = m.evaluate_assignment(m.assignment({"x": 3.0, "y": 1.0}))
    assert rep.ok and rep.max_violation == 0.0


def test_evaluate_assignment_bounds_and_integrality():
    m, _, _ = small_model()
    m.freeze()
    rep = m.evaluate_assignment(m.assignment({"x": 11.0, "y": 0.4}))
    assert any(v.label.startswith("bounds:") for v in rep.violations)
    assert rep.integrality_violations == [("y", 0.4)]


def test_evaluate_assignment_missing_value():
    m, _, _ = small_model()
    m.freeze()
    with pytest.raises(MissingVariableError):
        m.evaluate_assignment(m.assignment({"x": 0.0}))


def test_assignment_is_a_vector_in_column_order_with_a_read_only_view():
    m, _, _ = small_model()
    m.freeze()
    with pytest.raises(MissingVariableError, match="y"):
        m.assignment({"x": 1.0})
    asg = m.assignment({"y": 1, "x": 2.5, "extra": 7.0})
    assert asg.x.dtype == float and asg.x.tolist() == [2.5, 1.0]
    view = asg.values
    assert view["y"] == 1.0 and type(view["y"]) is float
    assert view == {"x": 2.5, "y": 1.0} and dict(view) == {"x": 2.5, "y": 1.0}
    assert list(view) == ["x", "y"] and len(view) == 2 and "z" not in view
    with pytest.raises(TypeError):
        view["x"] = 0.0
    asg.x[0] = 3.0                  # the view reads the vector as it is now
    assert view["x"] == 3.0


def test_evaluate_assignment_refuses_a_foreign_assignment():
    m, _, _ = small_model()
    other, _, _ = small_model()
    for model in (m, other):
        model.freeze()
    rep = m.evaluate_assignment(m.assignment({"x": 1.0, "y": 0.0}))
    assert rep.ok
    with pytest.raises(ForeignVariableError):
        m.evaluate_assignment(other.assignment({"x": 1.0, "y": 0.0}))
    for x in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
        with pytest.raises(ForeignVariableError):
            m.evaluate_assignment(Assignment(m, x))


def test_bilinear_constraints_separate():
    m = ModelIR()
    x = m.add_variable(VarDef("x", CONTINUOUS, 0.0, 1.0))
    y = m.add_variable(VarDef("y", CONTINUOUS, 0.0, 1.0))
    m.add_bilinear_constraint([(1.0, x, y)], [(1.0, x)], LE, 1.0, "prod")
    assert len(m.constraints) == 0
    assert len(m.bilinear_constraints) == 1
    m.freeze()
    rep = m.evaluate_assignment(m.assignment({"x": 1.0, "y": 1.0}))
    assert not rep.ok and rep.violations[0].label == "prod"


def test_round_binaries_snaps_only_near_values():
    m = ModelIR()
    m.add_variable(VarDef("b", BINARY))
    m.add_variable(VarDef("c", BINARY))
    out = round_binaries(m, m.assignment({"b": 0.9999997, "c": 0.4}).x)
    assert out.tolist() == [1.0, 0.4]


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_violation_semantics(lhs, rhs):
    assert _violation(lhs, LE, rhs) == max(0.0, lhs - rhs)
    assert _violation(lhs, GE, rhs) == max(0.0, rhs - lhs)
    assert math.isclose(_violation(lhs, EQ, rhs), abs(lhs - rhs))


def test_objective_quadratic_evaluation():
    m = ModelIR()
    x = m.add_variable(VarDef("x"))
    m.add_objective_quadratic(2.0, x, x)
    m.add_objective_constant(1.0)
    m.freeze()
    assert m.evaluate_objective(m.assignment({"x": 3.0}).x) == pytest.approx(19.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_audit_rejects_non_finite_values(bad):
    m, _, _ = small_model()
    m.freeze()
    for name in ("x", "y"):
        values = {"x": 1.0, "y": 0.0}
        values[name] = bad
        report = m.evaluate_assignment(m.assignment(values))
        assert not report.ok
        assert [n for n, _ in report.integrality_violations] == [name]


def test_audit_rejects_all_nan_solution():
    m, _, _ = small_model()
    m.freeze()
    report = m.evaluate_assignment(m.assignment({"x": math.nan,
                                                      "y": math.nan}))
    assert not report.ok and len(report.integrality_violations) == 2
