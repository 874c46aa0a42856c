import numpy as np
import pytest

from mipnn.emit import (BilinearUnsupportedError, EmitError, SolutionError,
                        count_forecast, fmt, lp_text, model_stats, mps_text,
                        parse_lp, parse_mps, read_lp, read_mps, read_solution,
                        write_lp, write_mps, write_solution)
from mipnn.ir import BINARY, CONTINUOUS, EQ, GE, LE, ModelIR, VarDef
from mipnn.nnspec import DenseArch, Hyper, TRAIN_QUANTIZED


def random_model(rng, tag):
    m = ModelIR("rand%d" % tag)
    nvars = int(rng.integers(2, 12))
    refs = []
    for i in range(nvars):
        if rng.random() < 0.3:
            refs.append(m.add_variable(VarDef("b%d" % i, BINARY)))
        else:
            lo = float(np.round(rng.uniform(-10, 10), 6))
            hi = lo + float(np.round(rng.uniform(0, 10), 6))
            style = rng.integers(0, 5)
            if style == 0:
                lo, hi = -np.inf, np.inf
            elif style == 1:
                hi = np.inf
            elif style == 2:
                lo = -np.inf
            elif style == 4:
                hi = lo
            refs.append(m.add_variable(VarDef("x%d" % i, CONTINUOUS, lo, hi)))
    for c in range(int(rng.integers(1, 10))):
        k = int(rng.integers(1, min(4, nvars) + 1))
        picks = rng.choice(nvars, size=k, replace=False)
        terms = [(float(np.round(rng.uniform(-5, 5), 6)), refs[j])
                 for j in picks]
        sense = [LE, EQ, GE][int(rng.integers(0, 3))]
        rhs = float(np.round(rng.uniform(-5, 5), 6))
        m.add_constraint(terms, sense, rhs, "row%d" % int(rng.integers(0, 3)))
    for _ in range(int(rng.integers(0, 4))):
        m.add_objective_linear(float(np.round(rng.uniform(-2, 2), 6)),
                               refs[int(rng.integers(0, nvars))])
    for _ in range(int(rng.integers(0, 3))):
        r1 = refs[int(rng.integers(0, nvars))]
        r2 = refs[int(rng.integers(0, nvars))]
        m.add_objective_quadratic(float(np.round(rng.uniform(-2, 2), 6)), r1, r2)
    if rng.random() < 0.5:
        m.add_objective_constant(float(np.round(rng.uniform(-3, 3), 6)))
    m.freeze()
    return m


def assert_models_equal(a, b):
    assert a.name == b.name
    assert [(v.name, v.kind, v.lo, v.hi) for v in a.variables] \
        == [(v.name, v.kind, v.lo, v.hi) for v in b.variables]
    assert len(a.constraints) == len(b.constraints)
    for ca, cb in zip(a.constraints, b.constraints):
        assert ca.label == cb.label and ca.sense == cb.sense
        assert ca.rhs == cb.rhs
        assert {r.name: c for c, r in ca.terms} == {r.name: c for c, r in cb.terms}
    assert {r.name: c for c, r in a.objective.linear} \
        == {r.name: c for c, r in b.objective.linear}
    assert {(r1.name, r2.name): c for c, r1, r2 in a.objective.quadratic} \
        == {(r1.name, r2.name): c for c, r1, r2 in b.objective.quadratic}
    assert a.objective.constant == b.objective.constant


@pytest.mark.parametrize("writer,parser", [(lp_text, parse_lp),
                                           (mps_text, parse_mps)])
def test_round_trip_randomized(writer, parser):
    rng = np.random.default_rng(99)
    for tag in range(50):
        m = random_model(rng, tag)
        text = writer(m)
        back = parser(text)
        assert_models_equal(m, back)
        assert writer(back) == text


@pytest.mark.parametrize("writer,parser", [(lp_text, parse_lp),
                                           (mps_text, parse_mps)])
def test_fixed_binary_bounds_survive_round_trip(writer, parser):
    m = ModelIR("fix")
    m.add_variable(VarDef("x", CONTINUOUS, 0, 1))
    m.add_variable(VarDef("on", BINARY))
    m.add_variable(VarDef("off", BINARY))
    m.set_bounds("on", 1.0, 1.0)
    m.set_bounds("off", 0.0, 0.0)
    m.add_constraint([(1.0, m.var("x")), (1.0, m.var("on"))], LE, 2.0, "c")
    m.freeze()
    back = parser(writer(m))
    assert_models_equal(m, back)
    assert writer(back) == writer(m)


def test_emission_is_deterministic():
    a = lp_text(random_model(np.random.default_rng(5), 0))
    b = lp_text(random_model(np.random.default_rng(5), 0))
    assert a == b


def test_fmt_shortest_positional():
    assert fmt(1.0) == "1"
    assert fmt(-0.0) == "0"
    assert fmt(0.1) == "0.1"
    assert fmt(1e-06) == "0.000001"
    assert fmt(1.5e10) == "15000000000"
    assert fmt(1 / 3) == repr(1 / 3)
    for x in (1e-06, 0.1, 1 / 3, 123456.789):
        assert float(fmt(x)) == x


def test_unfrozen_model_rejected(tmp_path):
    m = ModelIR()
    m.add_variable(VarDef("x", CONTINUOUS, 0, 1))
    with pytest.raises(EmitError):
        write_lp(m, str(tmp_path / "m.lp"))


def test_bilinear_rejected(tmp_path):
    m = ModelIR()
    x = m.add_variable(VarDef("x", CONTINUOUS, 0, 1))
    y = m.add_variable(VarDef("y", CONTINUOUS, 0, 1))
    m.add_bilinear_constraint([(1.0, x, y)], [], LE, 1.0, "prod")
    m.freeze()
    with pytest.raises(BilinearUnsupportedError):
        write_lp(m, str(tmp_path / "m.lp"))
    with pytest.raises(BilinearUnsupportedError):
        write_mps(m, str(tmp_path / "m.mps"))


def _model_with(coef=1.0, rhs=2.0, obj=1.0, quad=1.0, constant=0.0, lo=-np.inf):
    m = ModelIR("m")
    x = m.add_variable(VarDef("x", CONTINUOUS, lo, np.inf))
    y = m.add_variable(VarDef("y", BINARY))
    m.add_constraint([(1.0, x), (1.0, y)], GE, 0.0, "ok")
    m.add_constraint([(1.0, y), (coef, x)], LE, rhs, "cap")
    m.add_objective_linear(obj, x)
    m.add_objective_quadratic(quad, x, y)
    m.add_objective_constant(constant)
    return m.freeze()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field, message", [
    ("coef", r"row cap\.1: coefficient .* of 'x' is not finite"),
    ("rhs", r"row cap\.1: rhs .* is not finite"),
    ("obj", r"objective: coefficient of 'x' .* is not finite"),
    ("quad", r"objective: coefficient of 'x' \* 'y' .* is not finite"),
    ("constant", r"objective: constant .* is not finite"),
])
def test_non_finite_numbers_are_refused_before_any_file(tmp_path, field, message, bad):
    m = _model_with(**{field: bad})
    for text, write, ext in ((lp_text, write_lp, "lp"), (mps_text, write_mps, "mps")):
        with pytest.raises(EmitError, match=message):
            text(m)
        path = tmp_path / ("m." + ext)
        with pytest.raises(EmitError, match=message):
            write(m, str(path))
        assert not path.exists()


def test_infinite_bounds_stay_legal():
    m = _model_with()
    assert m.lo[0] == -np.inf and m.hi[0] == np.inf
    for writer, parser in ((lp_text, parse_lp), (mps_text, parse_mps)):
        assert_models_equal(m, parser(writer(m)))
    with pytest.raises(EmitError, match="variable 'x': a bound is NaN"):
        lp_text(_model_with(lo=np.nan))


def test_write_read_files(tmp_path):
    m = random_model(np.random.default_rng(1), 0)
    lp = tmp_path / "m.lp"
    mps = tmp_path / "m.mps"
    nbytes = write_lp(m, str(lp))
    assert nbytes == lp.stat().st_size
    write_mps(m, str(mps))
    assert_models_equal(m, read_lp(str(lp)))
    assert_models_equal(m, read_mps(str(mps)))


def test_solution_round_trip(tmp_path):
    m = ModelIR()
    m.add_variable(VarDef("x", CONTINUOUS, 0, 10))
    m.add_variable(VarDef("flag", BINARY))
    m.freeze()
    p = tmp_path / "s.txt"
    write_solution(m, m.assignment({"x": 2.5, "flag": 1.0}), str(p),
                   objective=3.25, gap=0.01)
    sf = read_solution(m, str(p))
    assert sf.objective == 3.25 and sf.gap == 0.01
    assert sf.assignment.values == {"x": 2.5, "flag": 1.0}


def test_solution_binary_rounding(tmp_path):
    m = ModelIR()
    m.add_variable(VarDef("flag", BINARY))
    m.freeze()
    p = tmp_path / "s.txt"
    p.write_text("flag 0.9999997\n")
    sf = read_solution(m, str(p))
    assert sf.assignment.values["flag"] == 1.0


def test_solution_unknown_and_missing(tmp_path):
    m = ModelIR()
    m.add_variable(VarDef("x", CONTINUOUS, 0, 1))
    m.freeze()
    p = tmp_path / "s.txt"
    p.write_text("y 1.0\n")
    with pytest.raises(SolutionError, match="unknown variable"):
        read_solution(m, str(p))
    p.write_text("# just a comment\n")
    with pytest.raises(SolutionError, match="no value"):
        read_solution(m, str(p))
    sf = read_solution(m, str(p), fill_missing=True)
    assert sf.assignment.values["x"] == 0.0


def test_stats_empty_model():
    m = ModelIR()
    m.freeze()
    st = model_stats(m)
    assert st.total_variables == 0 and st.total_constraints == 0
    assert st.quadratic_terms == 0 and st.bilinear_terms == 0


def test_count_forecast_quantized_dense():
    arch = DenseArch(2, [2], 1)
    hyper = Hyper(mode=TRAIN_QUANTIZED, bits=2, quantize_biases=True)
    fc = count_forecast(arch, 4, hyper)
    assert fc == {"delta": 8, "gamma": 1, "zeta": 0, "digits": 18}


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "abc"])
def test_solution_non_finite_value_rejected_with_line(tmp_path, text):
    m = ModelIR()
    m.add_variable(VarDef("x", CONTINUOUS, 0, 1))
    m.add_variable(VarDef("y", CONTINUOUS, 0, 1))
    m.freeze()
    p = tmp_path / "s.txt"
    p.write_text("# objective 1\nx 0.5\ny %s\n" % text)
    with pytest.raises(SolutionError, match=r"s\.txt:3: .*not a finite number"):
        read_solution(m, str(p))


def test_solution_repeated_name_rejected_with_line(tmp_path):
    m = ModelIR()
    m.add_variable(VarDef("x", CONTINUOUS, 0, 1))
    m.freeze()
    p = tmp_path / "s.txt"
    p.write_text("x 0.5\n\nx 0.25\n")
    with pytest.raises(SolutionError, match=r"s\.txt:3: repeated variable 'x'"):
        read_solution(m, str(p))
