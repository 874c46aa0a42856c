"""Compile a dense network spec into its complete mixed-integer program, and
the per-tensor emitters the dense and convolutional builders share.

Layer index conventions (all 0-based, used verbatim in variable names):
  weight layers   l in 0..L      (0..L-1 hidden, L = linear head)
  hidden layers   h in 0..L-1    (z, delta, gamma)
  activations     a[i][0] input, a[i][h+1] hidden output, a[i][L+1] head output
  bias digits     d[l][j][n_in][t]  (bias treated as column n_in of layer l)
  products        y[i][l][j][k][t]  for weight layers l >= 1 in quantized mode
  residuals       r[i][j]           in absolute-loss mode

Three modes resolve the weight-times-activation products: ``verify`` fixes all
weights (the system is exactly linear), ``train-bilinear`` carries the raw
products for solvers that accept nonconvex quadratics, and ``train-quantized``
expands each weight into binary digits with exact product linearization,
yielding a true MILP.

Both builders describe their parameters as one ordered list of ``Tensor``s
(``param_tensors``): the dense layers, or the conv layers and then the head.
The declarations, the weight-times-input rows, the ReLU units, the head rows
and the objective are emitted from that list by the functions below.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ir
from .ir import BINARY, CONTINUOUS, EQ, GE, LE, ModelIR, VarDef
from .nnspec import (LOSS_ABS, TRAIN_BILINEAR, TRAIN_QUANTIZED, VERIFY,
                     DenseArch, validate_arch)
from .recon import DenseNet, QuantSpec, forward_trace, objective_breakdown


class BuildError(Exception):
    pass


class IllPosedBoundsError(BuildError):
    pass


def vn(base, *idx):
    return base + "[%d]" * len(idx) % idx


def _names(base, ndim, fixed, at):
    """``vn`` as a %-pattern over an ndim-index with ``fixed`` inserted at ``at``."""
    return (base + "[%d]" * at + "".join("[%d]" % i for i in fixed)
            + "[%d]" * (ndim - at))


def fill(values, base, array, *fixed, at=0):
    """Set ``values[vn(base, *idx[:at], *fixed, *idx[at:])]`` to ``array[idx]``
    for every index ``idx`` of ``array``."""
    array = np.asarray(array, dtype=float)
    name = _names(base, array.ndim, fixed, at)
    for idx, x in zip(np.ndindex(array.shape), array.ravel().tolist()):
        values[name % idx] = x


def gather(values, base, shape, *fixed, at=0):
    """The array of shape ``shape`` that ``fill`` would have stored."""
    name = _names(base, len(shape), fixed, at)
    return np.array([values[name % idx] for idx in np.ndindex(shape)]).reshape(shape)


def bit_vector(build, bits):
    """A structural-bit assignment as an array in ``build.structural`` order."""
    return np.array([bits[name] for name in build.structural], dtype=float)


def digit_columns(col, tensors, bits):
    """Columns, by ``col``, of the digits of parameter tensors listed as
    (shape, names), ``names(*idx)`` naming the digits of an entry: one
    (entries, bits) index array over the tensors' entries in C order, and the
    list of shapes."""
    try:
        cols = [[col[d] for d in names(*idx)]
                for shape, names in tensors for idx in np.ndindex(shape)]
    except KeyError:
        raise BuildError("free parameters: bits do not determine the net") from None
    return (np.array(cols, dtype=int).reshape(-1, bits),
            [shape for shape, _ in tensors])


def decode_layers(build, values):
    """The (W, b) or (K, b) per layer that structural-bit vectors ``values``,
    of shape (..., len(structural)), determine: the fixed weights in
    verification mode, else decoded through ``_structural_columns``."""
    if build.hyper.mode == VERIFY:
        return [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                for W, b in build.fixed_weights]
    _, digits, shapes = build._structural_columns
    quant = QuantSpec(build.hyper.bits, build.hyper.w_max)
    flat = quant.decode_array(values[..., digits])
    tensors = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        tensors.append(flat[..., start:start + size].reshape(values.shape[:-1] + shape))
        start += size
    return list(zip(tensors[0::2], tensors[1::2]))


def net_quant(hyper):
    """The weight grid of a train-quantized net, else None."""
    return (QuantSpec(hyper.bits, hyper.w_max)
            if hyper.mode == TRAIN_QUANTIZED else None)


@dataclass(frozen=True)
class Tensor:
    """The parameters of weight layer ``l``: weights ``w[l][row][...]`` of
    ``shape`` (rows first) and biases ``b[l][row]``.  ``gates[row]`` names
    the pruning switch of each row (empty for the ungated head) and ``label``
    the rows that apply the layer.  Weight digits are ``d[l][row][...][t]``,
    keyed ``(l, row, ...)``; bias digits are keyed ``(l, row) + bias_col`` and
    named ``d`` with that key when ``bias_col`` is set (dense puts the bias
    at column n_in), else ``db[l][row][t]``."""
    w: str
    b: str
    l: int
    shape: tuple
    gates: tuple
    label: str
    bias_col: tuple

    def bias_key(self, row):
        return (self.l, row) + self.bias_col


def param_tensors(arch):
    """The parameter tensors of ``arch`` in declaration order: the dense
    layers, or each conv layer's kernels and then the dense head."""
    if isinstance(arch, DenseArch):
        L, widths = arch.num_hidden, arch.widths
        return [Tensor("W", "b", l, (widths[l + 1], widths[l]),
                       (vn("gamma", l),) * widths[l + 1] if l < L else (),
                       "affine_map" if l < L else "output_map", (widths[l],))
                for l in range(L + 1)]
    shapes = validate_arch(arch)
    tensors = [Tensor("Wc", "bc", l,
                      (layer.filters, shapes[l][0]) + tuple(layer.kernel),
                      tuple(vn("gamma", l, c) for c in range(layer.filters)),
                      "conv_map", ())
               for l, layer in enumerate(arch.conv_layers)]
    c, h, w = shapes[-1]
    return tensors + [Tensor("W", "b", len(tensors), (arch.head_dim, c * h * w),
                             (), "output_map", ())]


def encode_relu(model, z, a, delta, z_lo, z_hi):
    """The four-inequality exact ReLU encoding driven by one binary indicator."""
    if not (z_lo <= 0.0 <= z_hi):
        raise IllPosedBoundsError(
            "ReLU bounds must straddle 0, got [%r, %r]" % (z_lo, z_hi))
    model.add_constraint([(1.0, a)], GE, 0.0, "relu_lower")
    model.add_constraint([(1.0, a), (-1.0, z)], GE, 0.0, "relu_identity_lb")
    model.add_constraint([(1.0, a), (-1.0, z), (-z_lo, delta)], LE, -z_lo,
                         "relu_identity_ub")
    model.add_constraint([(1.0, a), (-z_hi, delta)], LE, 0.0,
                         "relu_activation_bound")


def encode_quantized_product(model, digits, a_ref, a_lo, a_hi, quant, y_namer):
    """Exact linearization of (quantized weight) * (bounded activation).

    Creates one product variable per digit, constrained so it equals the
    digit-activation product.  Returns the terms of the product expression.
    """
    if not np.isfinite(a_lo) or not np.isfinite(a_hi):
        raise BuildError("activation %s must be bounded for quantization" % a_ref.name)
    p_terms = []
    for t, d in enumerate(digits):
        y = model.add_variable(VarDef(y_namer(t), CONTINUOUS,
                                      min(a_lo, 0.0), max(a_hi, 0.0)))
        model.add_constraint([(1.0, y), (-a_hi, d)], LE, 0.0, "quant_product")
        model.add_constraint([(1.0, y), (-a_lo, d)], GE, 0.0, "quant_product")
        model.add_constraint([(1.0, y), (-1.0, a_ref), (-a_lo, d)], LE, -a_lo,
                             "quant_product")
        model.add_constraint([(1.0, y), (-1.0, a_ref), (-a_hi, d)], GE, -a_hi,
                             "quant_product")
        p_terms.append((quant.step * (2 ** t), y))
    p_terms.append((-quant.w_max, a_ref))
    return p_terms


def param_box(hyper):
    """The box |w|, |b| <= box of every trained weight and bias: ``w_max``
    in train-quantized mode, ``big_m`` otherwise.  The model's variable
    bounds and the interval bounds behind its big-M constants both use it."""
    return hyper.w_max if hyper.mode == TRAIN_QUANTIZED else hyper.big_m


# shared emitters --------------------------------------------------------------

def declare_params(build):
    """Every parameter variable: each row's weights then its bias, per tensor;
    every l1 auxiliary u; the pruning switches; in train-quantized mode each
    row's weight digits and then its bias digits, each group with the row
    defining its parameter.  Parameters are fixed in verification mode and
    boxed by ``w_max`` in train-quantized mode, by ``big_m`` otherwise."""
    model, hyper = build.model, build.hyper
    box = param_box(hyper)

    def param(name, fixed):
        lo, hi = (-box, box) if fixed is None else (float(fixed), float(fixed))
        model.add_variable(VarDef(name, CONTINUOUS, lo, hi))

    for t in build.tensors:
        W = b = None
        if hyper.mode == VERIFY:
            W, b = build.fixed_weights[t.l]
            W, b = np.asarray(W), np.asarray(b).ravel()
        for row in range(t.shape[0]):
            for idx in np.ndindex(t.shape[1:]):
                param(vn(t.w, t.l, row, *idx), None if W is None else W[row][idx])
            param(vn(t.b, t.l, row), None if b is None else b[row])
    for t in build.tensors:
        for idx in np.ndindex(t.shape):
            model.add_variable(VarDef(vn("u", t.l, *idx), CONTINUOUS,
                                      0.0, float("inf")))
    for g in build.gammas:
        model.add_variable(VarDef(g, BINARY))
        build.structural.append(g)
    if hyper.mode != TRAIN_QUANTIZED:
        return

    quant = QuantSpec(hyper.bits, hyper.w_max)

    def digits(key, base, target, label):
        names = tuple(vn(base, *key, t) for t in range(hyper.bits))
        for nm in names:
            model.add_variable(VarDef(nm, BINARY))
            build.structural.append(nm)
        build._digit_names[key] = names
        terms = [(1.0, model.var(target))]
        terms += [(-quant.step * (2 ** t), model.var(nm)) for t, nm in enumerate(names)]
        model.add_constraint(terms, EQ, -quant.w_max, label)

    for t in build.tensors:
        for row in range(t.shape[0]):
            for idx in np.ndindex(t.shape[1:]):
                key = (t.l, row) + idx
                digits(key, "d", vn(t.w, *key), "quant_weight_def")
            if hyper.quantize_biases:
                digits(t.bias_key(row), "d" if t.bias_col else "db",
                       vn(t.b, t.l, row), "quant_bias_def")


def l1_rows(model, u, w):
    """u >= |w|."""
    model.add_constraint([(1.0, u), (-1.0, w)], GE, 0.0, "l1_linearization")
    model.add_constraint([(1.0, u), (1.0, w)], GE, 0.0, "l1_linearization")


def prune_rows(model, ref, gate, big_m, label):
    """|ref| <= big_m * gate."""
    model.add_constraint([(1.0, ref), (-big_m, gate)], LE, 0.0, label)
    model.add_constraint([(-1.0, ref), (-big_m, gate)], LE, 0.0, label)


def input_rows(build, i):
    """a[i][0][...] fixed at the inputs of sample i."""
    x = build.data.inputs[i]
    for idx in np.ndindex(x.shape):
        xv = float(x[idx])
        ref = build.model.add_variable(VarDef(vn("a", i, 0, *idx), CONTINUOUS, xv, xv))
        build.model.add_constraint([(1.0, ref)], EQ, xv, "input_assignment")


def product_row(build, t, i, row, out, src, cells, pos=()):
    """The row ``out`` = bias + weight row ``row`` of ``t`` times its inputs.

    ``cells`` pairs each weight entry (the index after ``row``) with the cell
    of sample i's input map it multiplies; ``src`` = (base, index) names that
    map's variables ``base[i][index][cell]``.  Fixed weights and a first layer,
    whose inputs are data, give a linear row; otherwise the products stay
    bilinear, or in train-quantized mode are linearized digit by digit into
    y[i][l][row][entry][pos][t].
    """
    model, hyper = build.model, build.hyper
    terms = [(1.0, out), (-1.0, model.var(vn(t.b, t.l, row)))]
    if hyper.mode != VERIFY and t.l == 0:
        x = build.data.inputs[i]
        terms += [(-float(x[cell]), model.var(vn(t.w, 0, row, *e)))
                  for e, cell in cells]
        model.add_constraint(terms, EQ, 0.0, t.label)
        return
    base, index = src
    ins = [(e, model.var(vn(base, i, index, *cell))) for e, cell in cells]
    if hyper.mode == VERIFY:
        W = np.asarray(build.fixed_weights[t.l][0], dtype=float)[row]
        terms += [(-float(W[e]), a) for e, a in ins]
    elif hyper.mode == TRAIN_BILINEAR:
        quad = [(-1.0, model.var(vn(t.w, t.l, row, *e)), a) for e, a in ins]
        model.add_bilinear_constraint(quad, terms, EQ, 0.0, t.label)
        return
    else:
        quant = QuantSpec(hyper.bits, hyper.w_max)
        a_hi = build.btable.layer(t.l - 1).a_hi
        for e, a in ins:
            digits = [model.var(nm) for nm in build._digit_names[(t.l, row) + e]]
            p_terms = encode_quantized_product(
                model, digits, a, 0.0, a_hi, quant,
                lambda s, e=e: vn("y", i, t.l, row, *e, *pos, s))
            terms += [(-c, r) for c, r in p_terms]
    model.add_constraint(terms, EQ, 0.0, t.label)


def relu_units(build, t, i, row, src, windows):
    """z, a and delta of the units (row, *pos) of ReLU layer ``t.l`` for
    sample i, ``windows`` listing each pos with its ``product_row`` cells:
    the unit's product row, the ReLU encoding and the rows that hold a and z
    at 0 when the row's switch is off."""
    model = build.model
    z_lo, z_hi = build.unit_bounds(t.l, row)
    g = model.var(t.gates[row])
    M = build.hyper.big_m
    for pos, cells in windows:
        z = model.add_variable(VarDef(vn("z", i, t.l, row, *pos), CONTINUOUS,
                                      z_lo, z_hi))
        a = model.add_variable(VarDef(vn("a", i, t.l + 1, row, *pos), CONTINUOUS,
                                      0.0, max(0.0, z_hi)))
        d = model.add_variable(VarDef(vn("delta", i, t.l, row, *pos), BINARY))
        product_row(build, t, i, row, z, src, cells, pos)
        encode_relu(model, z, a, d, z_lo, z_hi)
        model.add_constraint([(1.0, a), (-M, g)], LE, 0.0, "pruning_activation")
        prune_rows(model, z, g, M, "pruning_activation")


def head_rows(build, i):
    """The head outputs a[i][L+1][j] of sample i over a[i][L], and in
    absolute-loss mode the residuals r[i][j] >= |a[i][L+1][j] - target|."""
    model = build.model
    t = build.tensors[-1]
    L = t.l
    cells = [((k,), (k,)) for k in range(t.shape[1])]
    for j in range(t.shape[0]):
        out = model.add_variable(VarDef(vn("a", i, L + 1, j), CONTINUOUS,
                                        float("-inf"), float("inf")))
        product_row(build, t, i, j, out, ("a", L), cells)
    if build.hyper.loss == LOSS_ABS:
        for j in range(t.shape[0]):
            r = model.add_variable(VarDef(vn("r", i, j), CONTINUOUS, 0.0, float("inf")))
            out = model.var(vn("a", i, L + 1, j))
            y = float(build.data.targets[i, j])
            model.add_constraint([(1.0, r), (-1.0, out)], GE, -y, "abs_loss")
            model.add_constraint([(1.0, r), (1.0, out)], GE, y, "abs_loss")


def add_objective(build):
    """Loss + alpha * (lam * l1 + (1 - lam) / 2 * frobenius) + beta * switches."""
    model, hyper = build.model, build.hyper
    head = build.tensors[-1]
    for i in range(build.data.n):
        for j in range(head.shape[0]):
            if hyper.loss == LOSS_ABS:
                model.add_objective_linear(1.0, model.var(vn("r", i, j)))
            else:
                out = model.var(vn("a", i, head.l + 1, j))
                y = float(build.data.targets[i, j])
                model.add_objective_quadratic(1.0, out, out)
                model.add_objective_linear(-2.0 * y, out)
                model.add_objective_constant(y * y)
    al = hyper.alpha * hyper.lam
    fr = 0.5 * hyper.alpha * (1.0 - hyper.lam)
    for t in build.tensors:
        for idx in np.ndindex(t.shape):
            if al:
                model.add_objective_linear(al, model.var(vn("u", t.l, *idx)))
            if fr:
                W = model.var(vn(t.w, t.l, *idx))
                model.add_objective_quadratic(fr, W, W)
    if hyper.beta:
        for g in build.gammas:
            model.add_objective_linear(hyper.beta, model.var(g))


class Build:
    """The compiled program plus everything needed to interpret its solutions.

    ``map_shapes[l]`` is the shape of ReLU layer l's units: (n_l,) dense,
    (C, H, W) pre-pool conv.  Subclasses define ``net(params, gammas)``, the
    recon net of (W, b) per tensor and the switches per gated tensor."""

    def __init__(self, model, arch, data, hyper, btable, fixed_weights, map_shapes):
        self.model = model
        self.arch = arch
        self.data = data
        self.hyper = hyper
        self.btable = btable
        self.fixed_weights = fixed_weights    # [(W, b)] per tensor in verification mode
        self.map_shapes = map_shapes
        self.tensors = param_tensors(arch)
        self.gammas = list(dict.fromkeys(g for t in self.tensors for g in t.gates))
        self.structural = []          # binary names the oracle branches on
        self._digit_names = {}        # digit key (see Tensor) -> tuple of digit names
        self.built_constraints = 0

    @property
    def L(self):
        return len(self.tensors) - 1

    def relu_pairs(self):
        return [(vn("z", i, l, *idx), vn("delta", i, l, *idx))
                for i in range(self.data.n)
                for l, shape in enumerate(self.map_shapes)
                for idx in np.ndindex(shape)]

    def unit_bounds(self, l, row):
        """(z_lo, z_hi) of unit or channel ``row`` of ReLU layer l."""
        return self.btable.relu_bounds(l, row if self.hyper.per_unit_bounds else None)

    @cached_property
    def _structural_columns(self):
        """Columns in ``structural`` of each gated tensor's switches, and, in
        a trained build, ``digit_columns`` of each tensor's W and then b."""
        col = {name: c for c, name in enumerate(self.structural)}
        gates = [np.array([col[g] for g in dict.fromkeys(t.gates)], dtype=int)
                 for t in self.tensors if t.gates]
        tensors = []
        if self.hyper.mode != VERIFY:
            names = self._digit_names
            for t in self.tensors:
                tensors += [(t.shape, lambda *idx, l=t.l: names[(l,) + idx]),
                            (t.shape[:1], lambda row, t=t: names[t.bias_key(row)])]
        return (gates,) + digit_columns(col, tensors, self.hyper.bits)

    def extract_net(self, values):
        """The net a full assignment holds."""
        params = [(gather(values, t.w, t.shape, t.l),
                   gather(values, t.b, t.shape[:1], t.l)) for t in self.tensors]
        gammas = [np.array([values[g] >= 0.5 for g in dict.fromkeys(t.gates)],
                           dtype=float)
                  for t in self.tensors if t.gates]
        return self.net(params, gammas)

    def decode_net(self, bits):
        """The net a structural-bit assignment determines."""
        values = bit_vector(self, bits)
        return self.net(decode_layers(self, values),
                        [values[cols] for cols in self._structural_columns[0]])

    def fill_params(self, values, params):
        """W, u = |W| and b of every tensor from (W, b) pairs."""
        for t, (W, b) in zip(self.tensors, params):
            fill(values, t.w, W, t.l)
            fill(values, "u", np.abs(W), t.l)
            fill(values, t.b, b, t.l)

    def fill_products(self, values, bits, t, inputs):
        """y[i][l][row][entry][pos][t] of tensor ``t``: the input it multiplies
        where digit t of the weight is set, else 0.  ``inputs[i][entry][pos]``
        is that input; ``pos`` indexes the output positions of a conv layer."""
        on = np.array([[bits[d] >= 0.5 for d in self._digit_names[(t.l,) + idx]]
                       for idx in np.ndindex(t.shape)])
        npos = inputs.ndim - len(t.shape)
        on = on.reshape((1,) + t.shape + (1,) * npos + (-1,))
        fill(values, "y", np.where(on, inputs[:, None, ..., None], 0.0), t.l, at=1)


class DenseBuild(Build):

    def __init__(self, model, arch, data, hyper, btable, fixed_weights):
        super().__init__(model, arch, data, hyper, btable, fixed_weights,
                         [(n,) for n in arch.hidden_widths])

    # solution handling ----------------------------------------------------

    def net(self, params, gammas):
        return DenseNet(weights=params, gamma=np.concatenate(gammas),
                        quant=net_quant(self.hyper))

    def complete(self, bits, tol=1e-6):
        """Forward-propagate a structural-bit assignment into a full candidate.

        Returns (objective, violation, trace), ``trace`` being the
        ``recon.forward_trace`` of the decoded net.  ``violation`` is the
        worst amount by which the candidate breaks any constraint family that
        is not satisfied by construction; a feasible candidate has
        violation <= tol.
        """
        h = self.hyper
        net = self.decode_net(bits)
        gamma = net.gamma
        trace = forward_trace(net, self.data.inputs)
        viol = abs(gamma[0] - 1.0)                                 # root layer active
        for g in range(self.L - 1):
            viol = max(viol, gamma[g + 1] - gamma[g])              # layer ordering
        for l in range(self.L):
            W, b = net.weights[l]
            z = trace[l][0]
            # pruning gates on the layer's parameters and pre-activations
            gate = h.big_m * gamma[l]
            viol = max(viol, np.abs(W).max(initial=0.0) - gate,
                       np.abs(b).max(initial=0.0) - gate,
                       np.abs(z).max(initial=0.0) - gate)
            if h.symmetry:
                sums = W.sum(axis=1)
                viol = max(viol, (sums[1:] - sums[:-1]).max(initial=0.0))
            if h.per_unit_bounds:
                lb = self.btable.layer(l)
                lo, hi = lb.unit_lo, lb.unit_hi
            else:
                lo, hi = self.btable.relu_bounds(l)
            viol = max(viol, (lo - z).max(initial=0.0), (z - hi).max(initial=0.0))
        obj = objective_breakdown(net, trace[-1][0], self.data.targets, h)["total"]
        return obj, float(viol), trace

    def complete_batch(self, values):
        """Objective and violation of B structural-bit vectors in one pass.

        ``values`` is a (B, len(structural)) array in ``structural`` order of
        a train-quantized build.  Every family ``complete`` checks is checked
        here too; the weights decode exactly, but the sums may associate
        differently, so the results agree with ``complete`` to rounding only.
        Returns two (B,) arrays: objective and violation.
        """
        h = self.hyper
        gamma = values[:, np.concatenate(self._structural_columns[0])]
        params = decode_layers(self, values)

        viol = np.abs(gamma[:, 0] - 1.0)
        for g in range(self.L - 1):
            viol = np.maximum(viol, gamma[:, g + 1] - gamma[:, g])
        for l in range(self.L):
            W, b = params[l]
            gate = h.big_m * gamma[:, l]
            viol = np.maximum(viol, np.abs(W).max(axis=(1, 2)) - gate)
            viol = np.maximum(viol, np.abs(b).max(axis=1) - gate)
            if h.symmetry:
                sums = W.sum(axis=2)
                viol = np.maximum(
                    viol, np.max(sums[:, 1:] - sums[:, :-1], axis=1, initial=0.0))

        a = self.data.inputs
        for hh in range(self.L):
            W, b = params[hh]
            z = a @ W.swapaxes(1, 2) + b[:, None, :]
            if h.per_unit_bounds:
                lb = self.btable.layer(hh)
                lo, hi = lb.unit_lo, lb.unit_hi
            else:
                lo, hi = self.btable.relu_bounds(hh)
            viol = np.maximum(viol, np.max(lo - z, axis=(1, 2), initial=0.0))
            viol = np.maximum(viol, np.max(z - hi, axis=(1, 2), initial=0.0))
            viol = np.maximum(viol, np.abs(z).max(axis=(1, 2))
                              - h.big_m * gamma[:, hh])
            a = np.maximum(z, 0.0)
        W, b = params[self.L]
        res = a @ W.swapaxes(1, 2) + b[:, None, :] - self.data.targets
        loss = (np.abs(res) if h.loss == LOSS_ABS else res ** 2).sum(axis=(1, 2))
        l1 = sum(np.abs(W).sum(axis=(1, 2)) for W, _ in params)
        fro = sum((W ** 2).sum(axis=(1, 2)) for W, _ in params)
        obj = (loss + h.alpha * h.lam * l1
               + 0.5 * h.alpha * (1.0 - h.lam) * fro + h.beta * gamma.sum(axis=1))
        return obj, np.maximum(viol, 0.0)

    def assemble(self, bits, tol=1e-6):
        """Full Assignment for a structural-bit candidate."""
        obj, viol, trace = self.complete(bits, tol)
        net = self.decode_net(bits)
        values = dict(bits)
        self.fill_params(values, net.weights)
        fill(values, "a", self.data.inputs, 0, at=1)
        for l, (z, a) in enumerate(trace[:-1]):
            fill(values, "z", z, l, at=1)
            fill(values, "a", a, l + 1, at=1)
            fill(values, "delta", z > 0, l, at=1)
        out = trace[-1][0]
        fill(values, "a", out, self.L + 1, at=1)
        if self.hyper.loss == LOSS_ABS:
            fill(values, "r", np.abs(out - self.data.targets))
        if self.hyper.mode == TRAIN_QUANTIZED:
            for t in self.tensors[1:]:
                self.fill_products(values, bits, t, trace[t.l - 1][1])
        return ir.Assignment(values=values), obj, viol


def build_dense(arch, data, hyper, btable, weights=None):
    """Assemble the full dense program in the requested mode."""
    if data.inputs.ndim != 2 or data.inputs.shape[1] != arch.input_dim:
        raise BuildError("data shape %r does not match input dim %d"
                         % (data.inputs.shape, arch.input_dim))
    if data.targets.shape[1] != arch.output_dim:
        raise BuildError("target width %d does not match output dim %d"
                         % (data.targets.shape[1], arch.output_dim))
    if len(btable) < arch.num_hidden:
        raise BuildError("bounds table covers %d layers, need %d"
                         % (len(btable), arch.num_hidden))
    if hyper.mode == VERIFY and weights is None:
        raise BuildError("verification mode needs fixed weights")
    if hyper.mode != VERIFY and weights is not None:
        raise BuildError("fixed weights only make sense in verification mode")

    model = ModelIR("dense")
    build = DenseBuild(model, arch, data, hyper, btable, weights)
    M = hyper.big_m
    declare_params(build)

    # parameter-side constraints -------------------------------------------
    hidden = build.tensors[:-1]
    for t in build.tensors:
        for idx in np.ndindex(t.shape):
            l1_rows(model, model.var(vn("u", t.l, *idx)), model.var(vn("W", t.l, *idx)))
    for t in hidden:
        for j in range(t.shape[0]):
            g = model.var(t.gates[j])
            for k in range(t.shape[1]):
                prune_rows(model, model.var(vn("W", t.l, j, k)), g, M, "prune_weights")
            prune_rows(model, model.var(vn("b", t.l, j)), g, M, "prune_biases")
    gammas = [model.var(g) for g in build.gammas]
    for h in range(len(gammas) - 1):
        model.add_constraint([(1.0, gammas[h + 1]), (-1.0, gammas[h])],
                             LE, 0.0, "layer_ordering")
    model.add_constraint([(1.0, gammas[0])], EQ, 1.0, "root_layer_active")
    if hyper.symmetry:
        for t in hidden:
            n_out, n_in = t.shape
            for j in range(n_out - 1):
                terms = [(1.0, model.var(vn("W", t.l, j, k))) for k in range(n_in)]
                terms += [(-1.0, model.var(vn("W", t.l, j + 1, k)))
                          for k in range(n_in)]
                model.add_constraint(terms, GE, 0.0, "symmetry_breaking")

    # per-sample network ----------------------------------------------------
    windows = [[((), [((k,), (k,)) for k in range(t.shape[1])])] for t in hidden]
    for i in range(data.n):
        input_rows(build, i)
        for t in hidden:
            for j in range(t.shape[0]):
                relu_units(build, t, i, j, ("a", t.l), windows[t.l])
        head_rows(build, i)

    add_objective(build)
    # callers may still inject extra constraints or tighten bounds before
    # freezing; the watermark tells the solver which rows came later
    build.built_constraints = len(model.constraints)
    return build
