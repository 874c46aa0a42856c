"""Compile a dense network spec into its complete mixed-integer program.

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
"""

import math
from functools import cached_property

import numpy as np

from . import ir
from .ir import BINARY, CONTINUOUS, EQ, GE, LE, ModelIR, VarDef
from .nnspec import (LOSS_ABS, LOSS_SQUARED, TRAIN_BILINEAR, TRAIN_QUANTIZED,
                     VERIFY)
from .recon import DenseNet, QuantSpec, forward_trace, objective_breakdown


class BuildError(Exception):
    pass


class IllPosedBoundsError(BuildError):
    pass


def vn(base, *idx):
    return base + "".join("[%d]" % i for i in idx)


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
    digit-activation product.  Returns the weight expression and the product
    expression, each as (terms, constant).
    """
    if not np.isfinite(a_lo) or not np.isfinite(a_hi):
        raise BuildError("activation %s must be bounded for quantization" % a_ref.name)
    step = quant.step
    w_terms = []
    p_terms = []
    for t, d in enumerate(digits):
        coef = step * (2 ** t)
        w_terms.append((coef, d))
        y = model.add_variable(VarDef(y_namer(t), CONTINUOUS,
                                      min(a_lo, 0.0), max(a_hi, 0.0)))
        model.add_constraint([(1.0, y), (-a_hi, d)], LE, 0.0, "quant_product")
        model.add_constraint([(1.0, y), (-a_lo, d)], GE, 0.0, "quant_product")
        model.add_constraint([(1.0, y), (-1.0, a_ref), (-a_lo, d)], LE, -a_lo,
                             "quant_product")
        model.add_constraint([(1.0, y), (-1.0, a_ref), (-a_hi, d)], GE, -a_hi,
                             "quant_product")
        p_terms.append((coef, y))
    p_terms.append((-quant.w_max, a_ref))
    return (w_terms, -quant.w_max), (p_terms, 0.0)


class DenseBuild:
    """The compiled program plus everything needed to interpret its solutions."""

    def __init__(self, model, arch, data, hyper, btable, fixed_weights):
        self.model = model
        self.arch = arch
        self.data = data
        self.hyper = hyper
        self.btable = btable
        self.fixed_weights = fixed_weights
        self.structural = []          # binary names the oracle branches on
        self._digit_names = {}        # (l, j, k) -> tuple of digit names; k == n_in is the bias
        self.built_constraints = 0

    # naming shortcuts -----------------------------------------------------

    @property
    def L(self):
        return self.arch.num_hidden

    def relu_pairs(self):
        out = []
        for i in range(self.data.n):
            for h in range(self.L):
                for j in range(self.arch.widths[h + 1]):
                    out.append((vn("z", i, h, j), vn("delta", i, h, j)))
        return out

    def hidden_bounds(self, h, j):
        if self.hyper.per_unit_bounds:
            return self.btable.relu_bounds(h, j)
        return self.btable.relu_bounds(h)

    def act_hi(self, h):
        """Upper bound of activation layer h (input of weight layer h)."""
        if h == 0:
            x = self.data.inputs
            return float(x.min()), float(x.max())
        lb = self.btable.layer(h - 1)
        return 0.0, lb.a_hi

    # solution handling ----------------------------------------------------

    def extract_net(self, values):
        widths = self.arch.widths
        weights = [(gather(values, "W", (widths[l + 1], widths[l]), l),
                    gather(values, "b", (widths[l + 1],), l))
                   for l in range(self.L + 1)]
        gamma = (gather(values, "gamma", (self.L,)) >= 0.5).astype(float)
        return DenseNet(weights=weights, gamma=gamma, quant=net_quant(self.hyper))

    @cached_property
    def _structural_columns(self):
        """Columns in ``structural`` of the gammas, and, in a trained build,
        ``digit_columns`` of W and b per weight layer: W0, b0, W1, b1, ..."""
        col = {name: c for c, name in enumerate(self.structural)}
        gammas = np.array([col[vn("gamma", g)] for g in range(self.L)], dtype=int)
        tensors = []
        if self.hyper.mode != VERIFY:
            names = self._digit_names
            widths = self.arch.widths
            for l in range(self.L + 1):
                n_out, n_in = widths[l + 1], widths[l]
                tensors += [((n_out, n_in), lambda j, k, l=l: names[(l, j, k)]),
                            ((n_out,), lambda j, l=l, k=n_in: names[(l, j, k)])]
        return (gammas,) + digit_columns(col, tensors, self.hyper.bits)

    def decode_net(self, bits):
        """The DenseNet a structural-bit assignment determines."""
        values = bit_vector(self, bits)
        return DenseNet(weights=decode_layers(self, values),
                        gamma=values[self._structural_columns[0]],
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
                lo, hi = self.hidden_bounds(l, 0)
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
        gamma = values[:, self._structural_columns[0]]
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
                lo, hi = self.hidden_bounds(hh, 0)
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
        for l, (W, b) in enumerate(net.weights):
            fill(values, "W", W, l)
            fill(values, "u", np.abs(W), l)
            fill(values, "b", b, l)
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
            # y[i][l][j][k][t] is a[i][l][k] where digit t of W[l][j][k] is set
            widths = self.arch.widths
            for l in range(1, self.L + 1):
                on = np.array([[[bits[d] >= 0.5 for d in self._digit_names[(l, j, k)]]
                                for k in range(widths[l])]
                               for j in range(widths[l + 1])])
                a = trace[l - 1][1][:, None, :, None]
                fill(values, "y", np.where(on, a, 0.0), l, at=1)
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
    L = arch.num_hidden
    widths = arch.widths
    n = data.n
    M = hyper.big_m
    quant = QuantSpec(hyper.bits, hyper.w_max)

    def wb_bounds(l):
        if hyper.mode == VERIFY:
            return None
        if hyper.mode == TRAIN_QUANTIZED:
            return (-hyper.w_max, hyper.w_max)
        return (-M, M)

    # parameters -----------------------------------------------------------
    for l in range(L + 1):
        n_out, n_in = widths[l + 1], widths[l]
        for j in range(n_out):
            for k in range(n_in):
                if hyper.mode == VERIFY:
                    w = float(np.asarray(weights[l][0])[j, k])
                    model.add_variable(VarDef(vn("W", l, j, k), CONTINUOUS, w, w))
                else:
                    lo, hi = wb_bounds(l)
                    model.add_variable(VarDef(vn("W", l, j, k), CONTINUOUS, lo, hi))
            if hyper.mode == VERIFY:
                bv = float(np.asarray(weights[l][1]).ravel()[j])
                model.add_variable(VarDef(vn("b", l, j), CONTINUOUS, bv, bv))
            elif hyper.mode == TRAIN_QUANTIZED and hyper.quantize_biases:
                model.add_variable(VarDef(vn("b", l, j), CONTINUOUS,
                                          -hyper.w_max, hyper.w_max))
            else:
                lo, hi = wb_bounds(l)
                model.add_variable(VarDef(vn("b", l, j), CONTINUOUS, lo, hi))
    for l in range(L + 1):
        for j in range(widths[l + 1]):
            for k in range(widths[l]):
                model.add_variable(VarDef(vn("u", l, j, k), CONTINUOUS,
                                          0.0, float("inf")))
    for h in range(L):
        model.add_variable(VarDef(vn("gamma", h), BINARY))
        build.structural.append(vn("gamma", h))

    if hyper.mode == TRAIN_QUANTIZED:
        for l in range(L + 1):
            n_out, n_in = widths[l + 1], widths[l]
            for j in range(n_out):
                cols = list(range(n_in)) + ([n_in] if hyper.quantize_biases else [])
                for k in cols:
                    names = tuple(vn("d", l, j, k, t) for t in range(hyper.bits))
                    for nm in names:
                        model.add_variable(VarDef(nm, BINARY))
                        build.structural.append(nm)
                    build._digit_names[(l, j, k)] = names
                    target = vn("b", l, j) if k == n_in else vn("W", l, j, k)
                    label = "quant_bias_def" if k == n_in else "quant_weight_def"
                    terms = [(1.0, model.var(target))]
                    terms += [(-quant.step * (2 ** t), model.var(nm))
                              for t, nm in enumerate(names)]
                    model.add_constraint(terms, EQ, -quant.w_max, label)

    # parameter-side constraints -------------------------------------------
    for l in range(L + 1):
        for j in range(widths[l + 1]):
            for k in range(widths[l]):
                u = model.var(vn("u", l, j, k))
                W = model.var(vn("W", l, j, k))
                model.add_constraint([(1.0, u), (-1.0, W)], GE, 0.0,
                                     "l1_linearization")
                model.add_constraint([(1.0, u), (1.0, W)], GE, 0.0,
                                     "l1_linearization")
    for h in range(L):
        g = model.var(vn("gamma", h))
        for j in range(widths[h + 1]):
            for k in range(widths[h]):
                W = model.var(vn("W", h, j, k))
                model.add_constraint([(1.0, W), (-M, g)], LE, 0.0, "prune_weights")
                model.add_constraint([(-1.0, W), (-M, g)], LE, 0.0, "prune_weights")
            b = model.var(vn("b", h, j))
            model.add_constraint([(1.0, b), (-M, g)], LE, 0.0, "prune_biases")
            model.add_constraint([(-1.0, b), (-M, g)], LE, 0.0, "prune_biases")
    for h in range(L - 1):
        model.add_constraint([(1.0, model.var(vn("gamma", h + 1))),
                              (-1.0, model.var(vn("gamma", h)))],
                             LE, 0.0, "layer_ordering")
    model.add_constraint([(1.0, model.var(vn("gamma", 0)))], EQ, 1.0,
                         "root_layer_active")
    if hyper.symmetry:
        for h in range(L):
            for j in range(widths[h + 1] - 1):
                terms = [(1.0, model.var(vn("W", h, j, k)))
                         for k in range(widths[h])]
                terms += [(-1.0, model.var(vn("W", h, j + 1, k)))
                          for k in range(widths[h])]
                model.add_constraint(terms, GE, 0.0, "symmetry_breaking")

    # per-sample network ----------------------------------------------------
    x = data.inputs
    for i in range(n):
        for j in range(widths[0]):
            xa = model.add_variable(VarDef(vn("a", i, 0, j), CONTINUOUS,
                                           float(x[i, j]), float(x[i, j])))
            model.add_constraint([(1.0, xa)], EQ, float(x[i, j]),
                                 "input_assignment")
        for h in range(L):
            n_out, n_in = widths[h + 1], widths[h]
            g = model.var(vn("gamma", h))
            for j in range(n_out):
                z_lo, z_hi = build.hidden_bounds(h, j)
                z = model.add_variable(VarDef(vn("z", i, h, j), CONTINUOUS,
                                              z_lo, z_hi))
                a = model.add_variable(VarDef(vn("a", i, h + 1, j), CONTINUOUS,
                                              0.0, max(0.0, z_hi)))
                d = model.add_variable(VarDef(vn("delta", i, h, j), BINARY))
                _affine_constraint(build, i, h, j, z)
                encode_relu(model, z, a, d, z_lo, z_hi)
                model.add_constraint([(1.0, a), (-M, g)], LE, 0.0,
                                     "pruning_activation")
                model.add_constraint([(1.0, z), (-M, g)], LE, 0.0,
                                     "pruning_activation")
                model.add_constraint([(-1.0, z), (-M, g)], LE, 0.0,
                                     "pruning_activation")
        for j in range(widths[L + 1]):
            out = model.add_variable(VarDef(vn("a", i, L + 1, j), CONTINUOUS,
                                            float("-inf"), float("inf")))
            _affine_constraint(build, i, L, j, out, output=True)
        if hyper.loss == LOSS_ABS:
            for j in range(widths[L + 1]):
                r = model.add_variable(VarDef(vn("r", i, j), CONTINUOUS,
                                              0.0, float("inf")))
                out = model.var(vn("a", i, L + 1, j))
                t = float(data.targets[i, j])
                model.add_constraint([(1.0, r), (-1.0, out)], GE, -t, "abs_loss")
                model.add_constraint([(1.0, r), (1.0, out)], GE, t, "abs_loss")

    _dense_objective(build)
    # callers may still inject extra constraints or tighten bounds before
    # freezing; the watermark tells the solver which rows came later
    build.built_constraints = len(model.constraints)
    return build


def _affine_constraint(build, i, l, j, z_ref, output=False):
    """z (or head output) minus the affine map of the previous activations."""
    model = build.model
    hyper = build.hyper
    widths = build.arch.widths
    n_in = widths[l]
    label = "output_map" if output else "affine_map"
    b_ref = model.var(vn("b", l, j))
    terms = [(1.0, z_ref), (-1.0, b_ref)]

    if hyper.mode == VERIFY:
        W = np.asarray(build.fixed_weights[l][0], dtype=float)
        for k in range(n_in):
            terms.append((-float(W[j, k]), model.var(vn("a", i, l, k))))
        model.add_constraint(terms, EQ, 0.0, label)
        return

    if l == 0:
        xi = build.data.inputs[i]
        for k in range(n_in):
            terms.append((-float(xi[k]), model.var(vn("W", l, j, k))))
        model.add_constraint(terms, EQ, 0.0, label)
        return

    if hyper.mode == TRAIN_BILINEAR:
        quad = [(-1.0, model.var(vn("W", l, j, k)), model.var(vn("a", i, l, k)))
                for k in range(n_in)]
        model.add_bilinear_constraint(quad, terms, EQ, 0.0, label)
        return

    # quantized products
    quant = QuantSpec(hyper.bits, hyper.w_max)
    a_lo, a_hi = build.act_hi(l)
    for k in range(n_in):
        a_ref = model.var(vn("a", i, l, k))
        digits = [model.var(nm) for nm in build._digit_names[(l, j, k)]]
        _, (p_terms, p_const) = encode_quantized_product(
            model, digits, a_ref, a_lo, a_hi, quant,
            lambda t, i=i, l=l, j=j, k=k: vn("y", i, l, j, k, t))
        terms += [(-c, r) for c, r in p_terms]
    model.add_constraint(terms, EQ, 0.0, label)


def _dense_objective(build):
    model = build.model
    hyper = build.hyper
    arch = build.arch
    L = arch.num_hidden
    widths = arch.widths

    for i in range(build.data.n):
        for j in range(widths[L + 1]):
            if hyper.loss == LOSS_ABS:
                model.add_objective_linear(1.0, model.var(vn("r", i, j)))
            else:
                out = model.var(vn("a", i, L + 1, j))
                t = float(build.data.targets[i, j])
                model.add_objective_quadratic(1.0, out, out)
                model.add_objective_linear(-2.0 * t, out)
                model.add_objective_constant(t * t)
    al = hyper.alpha * hyper.lam
    fr = 0.5 * hyper.alpha * (1.0 - hyper.lam)
    for l in range(L + 1):
        for j in range(widths[l + 1]):
            for k in range(widths[l]):
                if al:
                    model.add_objective_linear(al, model.var(vn("u", l, j, k)))
                if fr:
                    W = model.var(vn("W", l, j, k))
                    model.add_objective_quadratic(fr, W, W)
    if hyper.beta:
        for h in range(L):
            model.add_objective_linear(hyper.beta, model.var(vn("gamma", h)))
