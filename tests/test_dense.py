import numpy as np
import pytest

from mipnn.dense import (DenseBuild, IllPosedBoundsError, build_dense,
                         encode_quantized_product, encode_relu, vn)
from mipnn.ir import BINARY, CONTINUOUS, ModelIR, VarDef
from mipnn.nnspec import Dataset, DenseArch, Hyper, TRAIN_QUANTIZED, VERIFY
from mipnn.recon import DenseNet, QuantSpec, forward_trace
from mipnn.bounds import propagate_bounds

from conftest import (quantized_dense_build, random_dense_weights,
                      verify_dense_build, xor_data)


def test_relu_encoding_feasible_set_is_exact():
    """For z in a grid over the bounds, the only feasible (a, delta) pairs are
    (max(0,z), sign) with both indicator branches admitted at z = 0."""
    z_lo, z_hi = -2.0, 3.0
    for z_val in np.linspace(z_lo, z_hi, 11):
        for d_val in (0.0, 1.0):
            m = ModelIR()
            z = m.add_variable(VarDef("z", CONTINUOUS, z_val, z_val))
            a = m.add_variable(VarDef("a", CONTINUOUS, 0.0, max(0.0, z_hi)))
            d = m.add_variable(VarDef("d", BINARY))
            encode_relu(m, z, a, d, z_lo, z_hi)
            m.freeze()
            want = max(0.0, z_val)
            rep = m.evaluate_assignment(
                m.assignment({"z": z_val, "a": want, "d": d_val}))
            expect_ok = (d_val == 1.0) == (z_val > 0) or z_val == 0.0
            assert rep.ok == expect_ok
            # any other activation value is infeasible under the right indicator
            if expect_ok and want + 0.5 <= z_hi:
                rep = m.evaluate_assignment(
                    m.assignment({"z": z_val, "a": want + 0.5, "d": d_val}))
                assert not rep.ok


def test_relu_encoding_requires_straddling_bounds():
    m = ModelIR()
    z = m.add_variable(VarDef("z"))
    a = m.add_variable(VarDef("a"))
    d = m.add_variable(VarDef("d", BINARY))
    with pytest.raises(IllPosedBoundsError):
        encode_relu(m, z, a, d, 1.0, 2.0)


def test_quantized_product_mccormick_exact():
    """y_t = d_t * a for every digit pattern and activation endpoint."""
    quant = QuantSpec(2, 1.0)
    a_lo, a_hi = -1.5, 2.5
    for a_val in (a_lo, -0.3, 0.0, 1.1, a_hi):
        for pattern in range(4):
            bits = [(pattern >> t) & 1 for t in range(2)]
            m = ModelIR()
            a = m.add_variable(VarDef("a", CONTINUOUS, a_lo, a_hi))
            digits = [m.add_variable(VarDef("d%d" % t, BINARY)) for t in range(2)]
            encode_quantized_product(m, digits, a, a_lo, a_hi, quant,
                                     lambda t: "y%d" % t)
            m.freeze()
            values = {"a": a_val}
            for t in range(2):
                values["d%d" % t] = float(bits[t])
                values["y%d" % t] = bits[t] * a_val
            assert m.evaluate_assignment(m.assignment(values)).ok
            # the exactness claim: y != d * a is infeasible
            bad = dict(values)
            bad["y0"] = bits[0] * a_val + 0.25
            assert not m.evaluate_assignment(m.assignment(bad)).ok


def test_quantized_grid():
    q = QuantSpec(2, 1.0)
    assert q.grid() == pytest.approx([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
    assert 0.0 not in q.grid()
    q1 = QuantSpec(1, 1.0)
    assert q1.grid() == [-1.0, 1.0]


def test_delta_count_matches_formula():
    """One ReLU indicator per sample per hidden unit."""
    rng = np.random.default_rng(0)
    build, _, _ = verify_dense_build(rng, (3, 4, 2, 1), n_samples=5)
    deltas = [v for v in build.model.variables if v.name.startswith("delta")]
    assert len(deltas) == 5 * (4 + 2)


def test_quantized_digit_count():
    build = quantized_dense_build(xor_data(), [2], bits=2)
    digits = [v for v in build.model.variables if v.name.startswith("d[")]
    # weights 2*2 + 1*2 plus biases 2 + 1, two digits each
    assert len(digits) == (4 + 2 + 2 + 1) * 2
    assert len(build.structural) == 1 + len(digits)


def test_expected_constraint_labels_present():
    build = quantized_dense_build(xor_data(), [2, 2], bits=1)
    labels = {c.label for c in build.model.constraints}
    for want in ("relu_lower", "relu_identity_lb", "relu_identity_ub",
                 "relu_activation_bound", "affine_map", "output_map",
                 "input_assignment", "l1_linearization", "prune_weights",
                 "prune_biases", "pruning_activation", "layer_ordering",
                 "root_layer_active", "symmetry_breaking", "quant_weight_def",
                 "quant_bias_def", "quant_product"):
        assert want in labels, want


def test_verify_mode_reproduces_forward_pass(rng):
    build, weights, X = verify_dense_build(rng, (3, 4, 2), n_samples=6)
    bits = {name: 1.0 for name in build.structural}
    asg, obj, viol = build.assemble(bits)
    assert viol <= 1e-6
    net = DenseNet(weights=weights, gamma=np.ones(1))
    trace = forward_trace(net, X)
    for i in range(6):
        for j in range(4):
            assert asg.values[vn("z", i, 0, j)] == pytest.approx(
                trace[0][0][i, j], abs=1e-9)
            assert asg.values[vn("a", i, 1, j)] == pytest.approx(
                trace[0][1][i, j], abs=1e-9)
        for j in range(2):
            assert asg.values[vn("a", i, 2, j)] == pytest.approx(
                trace[1][0][i, j], abs=1e-9)


def test_layer_ordering_and_root():
    build = quantized_dense_build(xor_data(), [2, 2], bits=1)
    # root switch off is infeasible by construction
    obj, viol, _ = build.complete(_all_bits(build, gamma={0: 0.0, 1: 0.0}))
    assert viol > 1e-6
    # later layer on while earlier off violates the ordering
    obj, viol, _ = build.complete(_all_bits(build, gamma={0: 0.0, 1: 1.0}))
    assert viol > 1e-6


def _all_bits(build, gamma=None, digit=1.0):
    bits = {}
    for name in build.structural:
        bits[name] = digit
    if gamma is not None:
        for h, v in gamma.items():
            bits[vn("gamma", h)] = v
    return bits


def test_pruned_layer_forces_zeros(rng):
    """With the second hidden layer's fixed weights at zero, switching it off
    is feasible and every completion keeps its weights and activations at 0."""
    widths = (2, 2, 2, 1)
    arch = DenseArch(2, [2, 2], 1)
    weights = random_dense_weights(rng, widths)
    W1, b1 = weights[1]
    weights[1] = (np.zeros_like(W1), np.zeros_like(b1))
    X = rng.uniform(-1, 1, size=(3, 2))
    data = Dataset(inputs=X, targets=np.zeros((3, 1)))
    hyper = Hyper(mode=VERIFY, big_m=50.0, symmetry=False)
    bt = propagate_bounds(arch, X.min(0), X.max(0), 0.0, 0.0,
                          fixed_weights=weights)
    build = build_dense(arch, data, hyper, bt, weights=weights)
    build.model.freeze()

    bits = {vn("gamma", 0): 1.0, vn("gamma", 1): 0.0}
    obj, viol, _ = build.complete(bits)
    assert viol <= 1e-6
    asg, _, viol = build.assemble(bits)
    assert viol <= 1e-6
    for i in range(3):
        for j in range(2):
            assert abs(asg.values[vn("z", i, 1, j)]) <= 1e-6
            assert abs(asg.values[vn("a", i, 2, j)]) <= 1e-6


def test_symmetry_constraint_orders_row_sums():
    """With the ordering constraint built in, a candidate whose first hidden
    row sum is smaller than the second is rejected."""
    data = xor_data()
    build = quantized_dense_build(data, [2], bits=1, symmetry=True)
    # all digits 1 -> every weight at +1: row sums equal, feasible
    obj, viol, _ = build.complete(_all_bits(build, gamma={0: 1.0}))
    assert viol <= 1e-6
    # drive row 0 of layer 0 to -1 and row 1 to +1: increasing sums, rejected
    bits = _all_bits(build, gamma={0: 1.0})
    for name in build._digit_names[(0, 0, 0)] + build._digit_names[(0, 0, 1)]:
        bits[name] = 0.0
    obj, viol, _ = build.complete(bits)
    assert viol > 1e-6


def test_l1_vars_track_absolute_weights():
    build = quantized_dense_build(xor_data(), [2], bits=1)
    bits = _all_bits(build)
    for name in list(bits)[1::3]:
        if name.startswith("d["):
            bits[name] = 0.0
    asg, _, viol = build.assemble(bits)
    assert viol <= 1e-6
    for v in build.model.variables:
        if v.name.startswith("u["):
            w_name = "W" + v.name[1:]
            if w_name in asg.values:
                assert asg.values[v.name] == pytest.approx(
                    abs(asg.values[w_name]), abs=1e-12)


def test_quantized_weights_land_on_grid():
    build = quantized_dense_build(xor_data(), [2], bits=2)
    bits = _all_bits(build)
    asg, _, viol = build.assemble(bits)
    assert viol <= 1e-6
    grid = QuantSpec(2, 1.0).grid()
    for v in build.model.variables:
        if v.name.startswith("W[") or v.name.startswith("b["):
            assert min(abs(asg.values[v.name] - g) for g in grid) <= 1e-12


def test_complete_objective_matches_full_evaluation(rng):
    """The fast completion's objective equals the audited IR objective."""
    build = quantized_dense_build(xor_data(), [2], bits=1, symmetry=False)
    names = build.structural
    for _ in range(50):
        bits = {n: float(rng.integers(0, 2)) for n in names}
        obj, viol, _ = build.complete(bits)
        asg, obj2, viol2 = build.assemble(bits)
        rep = build.model.evaluate_assignment(asg)
        assert (viol <= 1e-6) == rep.ok
        if rep.ok:
            assert obj == pytest.approx(rep.objective, abs=1e-9)
            assert obj == pytest.approx(obj2, abs=1e-12)


def test_verify_needs_weights():
    data = xor_data()
    arch = DenseArch(2, [2], 1)
    hyper = Hyper(mode=VERIFY)
    bt = propagate_bounds(arch, data.inputs.min(0), data.inputs.max(0),
                          -1.0, 1.0)
    from mipnn.dense import BuildError
    with pytest.raises(BuildError):
        build_dense(arch, data, hyper, bt)
