"""The per-sample network is emitted a whole family at a time: the number of
store calls a build makes does not grow with the samples, the checks of the
per-unit emitters still fire, and the array paths that replaced per-unit
loops agree with those loops."""

import numpy as np
import pytest

from mipnn import cli
from mipnn.bounds import LayerBounds, propagate_bounds
from mipnn.dense import BuildError, IllPosedBoundsError, build_dense, vn
from mipnn.ir import ModelIR
from mipnn.nnspec import TRAIN_QUANTIZED, VERIFY, Dataset, DenseArch, Hyper
from mipnn.recon import audit

from conftest import quantized_dense_build, tiny_conv_build, verify_dense_build
from test_cli import write_xor_cfg
from test_golden_families import BUILDS

STORE_CALLS = ("add_constraint", "add_variable", "add_rows")


def _quantized_dense(n):
    rng = np.random.default_rng(5)
    data = Dataset(inputs=rng.uniform(-1, 1, size=(n, 2)),
                   targets=rng.uniform(-1, 1, size=(n, 2)))
    return quantized_dense_build(data, hidden=(3, 2), freeze=False)


def _verify_conv(n):
    return tiny_conv_build(np.random.default_rng(3), n_samples=n, mode=VERIFY,
                           freeze=False)


def _store_calls(monkeypatch, make, n):
    counts = dict.fromkeys(STORE_CALLS, 0)
    with monkeypatch.context() as mp:
        for name in STORE_CALLS:
            def counted(self, *args, _name=name, _method=getattr(ModelIR, name)):
                counts[_name] += 1
                return _method(self, *args)
            mp.setattr(ModelIR, name, counted)
        build = make(n)
    return counts, len(build.model.constraints)


@pytest.mark.parametrize("make", [_quantized_dense, _verify_conv])
def test_store_calls_do_not_grow_with_samples(monkeypatch, make):
    (small, rows_small), (large, rows_large) = (
        _store_calls(monkeypatch, make, n) for n in (2, 6))
    assert rows_large > rows_small
    assert small == large
    assert small["add_rows"] == 1


@pytest.mark.parametrize("make", [_quantized_dense, _verify_conv])
def test_relu_pairs_name_every_unit_in_order(make):
    build = make(3)
    assert build.relu_pairs() == [
        (vn("z", i, l, *idx), vn("delta", i, l, *idx))
        for i in range(build.data.n)
        for l, shape in enumerate(build.map_shapes)
        for idx in np.ndindex(shape)]


def _dense_bounds(per_unit, **layer0):
    X = np.random.default_rng(2).uniform(-1, 1, size=(3, 2))
    arch = DenseArch(2, [3, 2], 1)
    bt = propagate_bounds(arch, X.min(0), X.max(0), -1.0, 1.0)
    lb = bt.layers[0]
    bt.layers[0] = LayerBounds(0, layer0.get("lo", lb.unit_lo),
                               layer0.get("hi", lb.unit_hi), lb.provenance)
    hyper = Hyper(mode=TRAIN_QUANTIZED, bits=1, per_unit_bounds=per_unit)
    return arch, Dataset(inputs=X, targets=np.zeros((3, 1))), hyper, bt


@pytest.mark.parametrize("per_unit", [False, True])
def test_family_emitters_keep_the_unit_checks(per_unit):
    arch, data, hyper, bt = _dense_bounds(per_unit, lo=np.array([-1.0, 0.5, -1.0]))
    if per_unit:
        with pytest.raises(IllPosedBoundsError, match=r"\[0\.5, "):
            build_dense(arch, data, hyper, bt)
    else:                   # the collapsed bounds still straddle 0
        build_dense(arch, data, hyper, bt)
    arch, data, hyper, bt = _dense_bounds(per_unit, hi=np.array([1.0, np.inf, 1.0]))
    with pytest.raises(BuildError, match="bounded for quantization"):
        build_dense(arch, data, hyper, bt)


def _reference_indicators(build, values, tol):
    """The ReLU indicator pass unit by unit, as the audit used to run it."""
    out = []
    for z_name, d_name in build.relu_pairs():
        z, d = values[z_name], values[d_name]
        if abs(z) <= tol:
            continue
        if abs(d - (1.0 if z > 0 else 0.0)) > tol:
            out.append(("relu_indicator:" + d_name, abs(z)))
    return out


def test_indicator_pass_matches_the_unit_by_unit_reference(rng):
    build, _, _ = verify_dense_build(rng, (3, 4, 3, 2), n_samples=5)
    asg, _, viol = build.assemble({name: 1.0 for name in build.structural})
    assert viol <= 1e-6
    z, delta = build.relu_z, build.relu_delta
    for k in (0, 3, 7, 11, 30):
        asg.x[delta[k]] = 1.0 - asg.x[delta[k]]
    asg.x[z[5]] = float("nan")
    asg.x[z[6]] = 5e-7
    asg.x[delta[8]] = 0.5
    want = repr(_reference_indicators(build, asg.values, 1e-6))
    given = build.model.evaluate_assignment(asg)
    before = list(given.violations)
    for rep in (audit(build, asg), audit(build, asg, report=given)):
        got = [(v.label, v.amount) for v in rep.violations
               if v.label.startswith("relu_indicator:")]
        assert repr(got) == want and got
    assert given.violations == before


def _reference_selectors(act, pool):
    """zeta as a loop over every window: its first maximal cell."""
    (ph, pw), ps = pool
    n, c_l, oh, ow = act.shape
    zeta = np.zeros(act.shape)
    for i, c in np.ndindex(n, c_l):
        for hp, wp in np.ndindex((oh - ph) // ps + 1, (ow - pw) // ps + 1):
            cells = [(hp * ps + du, wp * ps + dv) for du in range(ph) for dv in range(pw)]
            h, w = max(cells, key=lambda hw: (act[i, c, hw[0], hw[1]], (-hw[0], -hw[1])))
            zeta[i, c, h, w] = 1.0
    return zeta


def test_selectors_pick_the_first_maximal_cell():
    build = BUILDS["conv-verify-pool-gaps"]()
    pool = build.arch.conv_layers[0].pool
    act = np.random.default_rng(4).integers(
        0, 3, size=(build.data.n,) + build.map_shapes[0])
    got = build._selectors(0, act.astype(float))
    want = _reference_selectors(act, pool)
    assert np.array_equal(got, want)
    assert want.sum() < act.size / 4      # some cells lie in no window


@pytest.mark.parametrize("engine", ["bnb", "oracle"])
def test_run_audits_the_winner_once(tmp_path, monkeypatch, engine):
    cfg = write_xor_cfg(tmp_path, engine=engine)
    calls = []
    evaluate = ModelIR.evaluate_assignment
    monkeypatch.setattr(ModelIR, "evaluate_assignment",
                        lambda self, *a, **k: calls.append(1) or evaluate(self, *a, **k))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    assert (tmp_path / "out" / "audit.txt").read_text().startswith("ok\n")
