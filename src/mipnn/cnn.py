"""Compile a convolutional spec: convolution unrolling, ReLU, max-pool
selection, channel-major flattening, channel pruning and symmetry breaking.

Naming (all 0-based):
  kernels        Wc[l][c][cp][u][v], biases bc[l][c], l in 0..L-1
  kernel l1 aux  u[l][c][cp][u][v]
  head           W[L][j][k], b[L][j], u[L][j][k]   (L = number of conv layers)
  activations    a[i][0][c][h][w] input; a[i][l+1][c][h][w] post-ReLU map
  pooled         p[i][l][c][h'][w']                (l = conv layer index)
  pool selectors zeta[i][l][c][h][w]               (pre-pool map coordinates)
  flattened      a[i][L][f]                        (channel-major f)
  head output    a[i][L+1][j]
  indicators     z/delta[i][l][c][h][w], gamma[l][c]
"""

from functools import cached_property

import numpy as np

from .ir import BINARY, CONTINUOUS, EQ, GE, LE, Assignment, ModelIR, VarDef
from .dense import (BuildError, bit_vector, decode_layers, digit_columns,
                    encode_relu, encode_quantized_product, fill, gather,
                    net_quant, vn)
from .nnspec import (LOSS_ABS, TRAIN_BILINEAR, TRAIN_QUANTIZED, VERIFY,
                     conv_map_shapes, validate_arch)
from .recon import (ConvNet, QuantSpec, flatten_index, forward_trace,
                    objective_breakdown)


def encode_maxpool(model, window_refs, p_ref, zeta_refs, big_m):
    """Select-the-max encoding over one pooling window."""
    if not window_refs:
        raise BuildError("empty pooling window")
    model.add_constraint([(1.0, zr) for zr in zeta_refs], EQ, 1.0,
                         "maxpool_select")
    for ar, zr in zip(window_refs, zeta_refs):
        model.add_constraint([(1.0, p_ref), (-1.0, ar)], GE, 0.0, "maxpool_lb")
        model.add_constraint([(1.0, p_ref), (-1.0, ar), (big_m, zr)], LE, big_m,
                             "maxpool_ub")


class ConvBuild:
    def __init__(self, model, arch, data, hyper, btable, fixed_weights):
        self.model = model
        self.arch = arch
        self.data = data
        self.hyper = hyper
        self.btable = btable
        self.fixed_weights = fixed_weights     # [(K, b)] per conv layer + head (W, b)
        self.structural = []
        self._digit_names = {}
        self.built_constraints = 0
        self.map_shapes = conv_map_shapes(arch)     # pre-pool (C, H, W) per layer
        self.out_shapes = validate_arch(arch)       # post-pool, incl. input at [0]

    @property
    def L(self):
        return len(self.arch.conv_layers)

    def channel_bounds(self, l, c=None):
        lb = self.btable.layer(l)
        if self.hyper.per_unit_bounds and c is not None:
            return float(lb.unit_lo[c]), float(lb.unit_hi[c])
        return lb.z_lo, lb.z_hi

    def pool_big_m(self, l):
        if self.hyper.pool_global_m:
            return self.hyper.big_m
        return self.btable.layer(l).a_hi

    def relu_pairs(self):
        out = []
        for i in range(self.data.n):
            for l in range(self.L):
                c_l, oh, ow = self.map_shapes[l]
                for c in range(c_l):
                    for h in range(oh):
                        for w in range(ow):
                            out.append((vn("z", i, l, c, h, w),
                                        vn("delta", i, l, c, h, w)))
        return out

    def head_input_dim(self):
        c, h, w = self.out_shapes[-1]
        return c * h * w

    # solution handling ----------------------------------------------------

    def extract_net(self, values):
        layers = self.arch.conv_layers
        shapes = self.out_shapes
        kernels = [(gather(values, "Wc",
                           (layer.filters, shapes[l][0]) + tuple(layer.kernel), l),
                    gather(values, "bc", (layer.filters,), l))
                   for l, layer in enumerate(layers)]
        gammas = [(gather(values, "gamma", (layer.filters,), l) >= 0.5).astype(float)
                  for l, layer in enumerate(layers)]
        head = (gather(values, "W", (self.arch.head_dim, self.head_input_dim()), self.L),
                gather(values, "b", (self.arch.head_dim,), self.L))
        return ConvNet(kernels=kernels, head=head, gamma=gammas,
                       pools=[layer.pool for layer in layers],
                       strides=[layer.stride for layer in layers],
                       quant=net_quant(self.hyper))

    @cached_property
    def _structural_columns(self):
        """Columns in ``structural`` of the gammas, one array per conv layer,
        and, in a trained build, ``digit_columns`` of each layer's kernel and
        biases, then of the head's W and b."""
        col = {name: c for c, name in enumerate(self.structural)}
        layers = self.arch.conv_layers
        gammas = [np.array([col[vn("gamma", l, c)] for c in range(layer.filters)],
                           dtype=int) for l, layer in enumerate(layers)]
        tensors = []
        if self.hyper.mode != VERIFY:
            params = []
            for l, layer in enumerate(layers):
                shape = (layer.filters, self.out_shapes[l][0]) + tuple(layer.kernel)
                params += [("Wc", l, shape), ("bc", l, shape[:1])]
            shape = (self.arch.head_dim, self.head_input_dim())
            params += [("W", self.L, shape), ("b", self.L, shape[:1])]
            names = self._digit_names
            tensors = [(shape, lambda *idx, key=(base, l): names[key + idx])
                       for base, l, shape in params]
        return (gammas,) + digit_columns(col, tensors, self.hyper.bits)

    def decode_net(self, bits):
        """The ConvNet a structural-bit assignment determines."""
        values = bit_vector(self, bits)
        params = decode_layers(self, values)
        layers = self.arch.conv_layers
        return ConvNet(kernels=params[:-1], head=params[-1],
                       gamma=[values[cols] for cols in self._structural_columns[0]],
                       pools=[layer.pool for layer in layers],
                       strides=[layer.stride for layer in layers],
                       quant=net_quant(self.hyper))

    def complete(self, bits, tol=1e-6):
        """Objective, violation and ``recon.forward_trace`` of the net a
        structural-bit assignment determines (see ``DenseBuild.complete``)."""
        h = self.hyper
        net = self.decode_net(bits)
        trace = forward_trace(net, self.data.inputs)
        viol = 0.0
        for l, (K, b) in enumerate(net.kernels):
            z = trace[l][0]
            # channel gates on the kernel, its bias and its pre-activations
            gate = h.big_m * net.gamma[l]
            absK = np.abs(K).reshape(K.shape[0], -1)
            viol = max(viol, (absK.max(axis=1) - gate).max(initial=0.0),
                       (np.abs(b) - gate).max(initial=0.0),
                       (np.abs(z) - gate[:, None, None]).max(initial=0.0))
            if h.symmetry:
                sums = absK.sum(axis=1)
                viol = max(viol, (sums[1:] - sums[:-1]).max(initial=0.0))
            lb = self.btable.layer(l)
            if h.per_unit_bounds:
                lo = lb.unit_lo[:, None, None]
                hi = lb.unit_hi[:, None, None]
            else:
                lo, hi = lb.z_lo, lb.z_hi
            viol = max(viol, (lo - z).max(initial=0.0), (z - hi).max(initial=0.0))
        obj = objective_breakdown(net, trace[-1][0], self.data.targets, h)["total"]
        return obj, float(viol), trace

    def assemble(self, bits, tol=1e-6):
        obj, viol, trace = self.complete(bits, tol)
        net = self.decode_net(bits)
        values = dict(bits)
        for l, (K, b) in enumerate(net.kernels + [net.head]):
            w_name, b_name = ("Wc", "bc") if l < self.L else ("W", "b")
            fill(values, w_name, K, l)
            fill(values, "u", np.abs(K), l)
            fill(values, b_name, b, l)
        fill(values, "a", self.data.inputs, 0, at=1)
        for l, layer in enumerate(self.arch.conv_layers):
            z, pooled = trace[l]
            act = np.maximum(z, 0.0)
            fill(values, "z", z, l, at=1)
            fill(values, "a", act, l + 1, at=1)
            fill(values, "delta", z > 0, l, at=1)
            if layer.pool is not None:
                fill(values, "p", pooled, l, at=1)
                self._assemble_selectors(values, l, act)
        flat = trace[-2][1].reshape(self.data.n, -1)
        out = trace[-1][0]
        fill(values, "a", flat, self.L, at=1)
        fill(values, "a", out, self.L + 1, at=1)
        if self.hyper.loss == LOSS_ABS:
            fill(values, "r", np.abs(out - self.data.targets))
        if self.hyper.mode == TRAIN_QUANTIZED:
            self._assemble_products(values, trace, flat, bits)
        return Assignment(values=values), obj, viol

    def _assemble_selectors(self, values, l, act):
        """zeta of conv layer l: each pool window selects its first maximal
        cell of the post-ReLU map ``act``."""
        (ph, pw), ps = self.arch.conv_layers[l].pool
        _, c_l, oh, ow = act.shape
        qh = (oh - ph) // ps + 1
        qw = (ow - pw) // ps + 1
        for i in range(self.data.n):
            for c in range(c_l):
                for hp in range(qh):
                    for wp in range(qw):
                        cells = [(hp * ps + du, wp * ps + dv)
                                 for du in range(ph) for dv in range(pw)]
                        best = max(cells,
                                   key=lambda hw: (act[i, c, hw[0], hw[1]],
                                                   (-hw[0], -hw[1])))
                        for (hh, ww) in cells:
                            values[vn("zeta", i, l, c, hh, ww)] = (
                                1.0 if (hh, ww) == best else 0.0)

    def _assemble_products(self, values, trace, flat, bits):
        shapes = self.out_shapes
        for i in range(self.data.n):
            for l, layer in enumerate(self.arch.conv_layers):
                if l == 0:
                    continue
                prev = trace[l - 1][1]
                c_l, oh, ow = self.map_shapes[l]
                c_in = shapes[l][0]
                kh, kw = layer.kernel
                s = layer.stride
                for c in range(c_l):
                    for cp in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                digits = self._digit_names[("Wc", l, c, cp, u, v)]
                                for hh in range(oh):
                                    for ww in range(ow):
                                        a_val = float(prev[i, cp, hh * s + u, ww * s + v])
                                        for t, d in enumerate(digits):
                                            values[vn("y", i, l, c, cp, u, v, hh, ww, t)] = (
                                                a_val if bits[d] >= 0.5 else 0.0)
            for j in range(self.arch.head_dim):
                for k in range(self.head_input_dim()):
                    digits = self._digit_names[("W", self.L, j, k)]
                    a_val = float(flat[i, k])
                    for t, d in enumerate(digits):
                        values[vn("y", i, self.L, j, k, t)] = (
                            a_val if bits[d] >= 0.5 else 0.0)


def build_cnn(arch, data, hyper, btable, weights=None):
    """Assemble the convolutional program in the requested mode.

    ``weights`` (verification mode) is a list of (kernel, bias) pairs per conv
    layer followed by the dense head (W, b).
    """
    if data.inputs.ndim != 4 or data.inputs.shape[1:] != arch.input_shape:
        raise BuildError("data shape %r does not match input shape %r"
                         % (data.inputs.shape, arch.input_shape))
    if data.targets.shape[1] != arch.head_dim:
        raise BuildError("target width mismatch")
    L = len(arch.conv_layers)
    if len(btable) < L:
        raise BuildError("bounds table covers %d layers, need %d" % (len(btable), L))
    if hyper.mode == VERIFY and weights is None:
        raise BuildError("verification mode needs fixed weights")

    model = ModelIR("cnn")
    build = ConvBuild(model, arch, data, hyper, btable, weights)
    shapes = build.out_shapes
    n = data.n
    M = hyper.big_m
    quant = QuantSpec(hyper.bits, hyper.w_max)

    def param_bounds():
        if hyper.mode == TRAIN_QUANTIZED:
            return (-hyper.w_max, hyper.w_max)
        return (-M, M)

    # kernels, biases, head ------------------------------------------------
    for l, layer in enumerate(arch.conv_layers):
        c_out, c_in = layer.filters, shapes[l][0]
        kh, kw = layer.kernel
        for c in range(c_out):
            for cp in range(c_in):
                for u in range(kh):
                    for v in range(kw):
                        if hyper.mode == VERIFY:
                            wv = float(np.asarray(weights[l][0])[c, cp, u, v])
                            model.add_variable(VarDef(vn("Wc", l, c, cp, u, v),
                                                      CONTINUOUS, wv, wv))
                        else:
                            lo, hi = param_bounds()
                            model.add_variable(VarDef(vn("Wc", l, c, cp, u, v),
                                                      CONTINUOUS, lo, hi))
            if hyper.mode == VERIFY:
                bv = float(np.asarray(weights[l][1]).ravel()[c])
                model.add_variable(VarDef(vn("bc", l, c), CONTINUOUS, bv, bv))
            else:
                lo, hi = param_bounds()
                model.add_variable(VarDef(vn("bc", l, c), CONTINUOUS, lo, hi))
    nf = build.head_input_dim()
    for j in range(arch.head_dim):
        for k in range(nf):
            if hyper.mode == VERIFY:
                wv = float(np.asarray(weights[L][0])[j, k])
                model.add_variable(VarDef(vn("W", L, j, k), CONTINUOUS, wv, wv))
            else:
                lo, hi = param_bounds()
                model.add_variable(VarDef(vn("W", L, j, k), CONTINUOUS, lo, hi))
        if hyper.mode == VERIFY:
            bv = float(np.asarray(weights[L][1]).ravel()[j])
            model.add_variable(VarDef(vn("b", L, j), CONTINUOUS, bv, bv))
        else:
            lo, hi = param_bounds()
            model.add_variable(VarDef(vn("b", L, j), CONTINUOUS, lo, hi))

    # l1 auxiliaries -------------------------------------------------------
    for l, layer in enumerate(arch.conv_layers):
        c_out, c_in = layer.filters, shapes[l][0]
        kh, kw = layer.kernel
        for c in range(c_out):
            for cp in range(c_in):
                for u in range(kh):
                    for v in range(kw):
                        model.add_variable(VarDef(vn("u", l, c, cp, u, v),
                                                  CONTINUOUS, 0.0, float("inf")))
    for j in range(arch.head_dim):
        for k in range(nf):
            model.add_variable(VarDef(vn("u", L, j, k), CONTINUOUS,
                                      0.0, float("inf")))
    for l, layer in enumerate(arch.conv_layers):
        for c in range(layer.filters):
            model.add_variable(VarDef(vn("gamma", l, c), BINARY))
            build.structural.append(vn("gamma", l, c))

    if hyper.mode == TRAIN_QUANTIZED:
        for l, layer in enumerate(arch.conv_layers):
            c_out, c_in = layer.filters, shapes[l][0]
            kh, kw = layer.kernel
            for c in range(c_out):
                for cp in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            _add_digits(build, ("Wc", l, c, cp, u, v),
                                        vn("Wc", l, c, cp, u, v),
                                        vn("d", l, c, cp, u, v),
                                        "quant_weight_def", quant)
                if not hyper.quantize_biases:
                    raise BuildError("quantized conv mode requires quantized biases")
                _add_digits(build, ("bc", l, c), vn("bc", l, c),
                            vn("db", l, c), "quant_bias_def", quant)
        for j in range(arch.head_dim):
            for k in range(nf):
                _add_digits(build, ("W", L, j, k), vn("W", L, j, k),
                            vn("d", L, j, k), "quant_weight_def", quant)
            _add_digits(build, ("b", L, j), vn("b", L, j),
                        vn("db", L, j), "quant_bias_def", quant)

    # parameter-side constraints -------------------------------------------
    def l1_pair(u_name, w_name):
        u = model.var(u_name)
        W = model.var(w_name)
        model.add_constraint([(1.0, u), (-1.0, W)], GE, 0.0, "l1_linearization")
        model.add_constraint([(1.0, u), (1.0, W)], GE, 0.0, "l1_linearization")

    for l, layer in enumerate(arch.conv_layers):
        c_out, c_in = layer.filters, shapes[l][0]
        kh, kw = layer.kernel
        for c in range(c_out):
            g = model.var(vn("gamma", l, c))
            for cp in range(c_in):
                for u in range(kh):
                    for v in range(kw):
                        l1_pair(vn("u", l, c, cp, u, v), vn("Wc", l, c, cp, u, v))
                        W = model.var(vn("Wc", l, c, cp, u, v))
                        model.add_constraint([(1.0, W), (-M, g)], LE, 0.0,
                                             "prune_weights")
                        model.add_constraint([(-1.0, W), (-M, g)], LE, 0.0,
                                             "prune_weights")
            b = model.var(vn("bc", l, c))
            model.add_constraint([(1.0, b), (-M, g)], LE, 0.0, "prune_biases")
            model.add_constraint([(-1.0, b), (-M, g)], LE, 0.0, "prune_biases")
    for j in range(arch.head_dim):
        for k in range(nf):
            l1_pair(vn("u", L, j, k), vn("W", L, j, k))
    if hyper.symmetry:
        for l, layer in enumerate(arch.conv_layers):
            c_out, c_in = layer.filters, shapes[l][0]
            kh, kw = layer.kernel
            for c in range(c_out - 1):
                terms = []
                for cp in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            terms.append((1.0, model.var(vn("u", l, c, cp, u, v))))
                            terms.append((-1.0, model.var(vn("u", l, c + 1, cp, u, v))))
                model.add_constraint(terms, GE, 0.0, "symmetry_breaking")

    # per-sample network ----------------------------------------------------
    x = data.inputs
    for i in range(n):
        c0, h0, w0 = arch.input_shape
        for c in range(c0):
            for hh in range(h0):
                for ww in range(w0):
                    xv = float(x[i, c, hh, ww])
                    ref = model.add_variable(VarDef(vn("a", i, 0, c, hh, ww),
                                                    CONTINUOUS, xv, xv))
                    model.add_constraint([(1.0, ref)], EQ, xv, "input_assignment")
        for l, layer in enumerate(arch.conv_layers):
            c_l, oh, ow = build.map_shapes[l]
            c_in = shapes[l][0]
            kh, kw = layer.kernel
            s = layer.stride
            for c in range(c_l):
                g = model.var(vn("gamma", l, c))
                z_lo, z_hi = build.channel_bounds(l, c)
                for hh in range(oh):
                    for ww in range(ow):
                        z = model.add_variable(VarDef(vn("z", i, l, c, hh, ww),
                                                      CONTINUOUS, z_lo, z_hi))
                        a = model.add_variable(VarDef(vn("a", i, l + 1, c, hh, ww),
                                                      CONTINUOUS, 0.0,
                                                      max(0.0, z_hi)))
                        d = model.add_variable(VarDef(vn("delta", i, l, c, hh, ww),
                                                      BINARY))
                        _conv_constraint(build, i, l, c, hh, ww, z)
                        encode_relu(model, z, a, d, z_lo, z_hi)
                        model.add_constraint([(1.0, a), (-M, g)], LE, 0.0,
                                             "pruning_activation")
                        model.add_constraint([(1.0, z), (-M, g)], LE, 0.0,
                                             "pruning_activation")
                        model.add_constraint([(-1.0, z), (-M, g)], LE, 0.0,
                                             "pruning_activation")
            if layer.pool is not None:
                (ph, pw), ps = layer.pool
                qh = (oh - ph) // ps + 1
                qw = (ow - pw) // ps + 1
                pool_m = build.pool_big_m(l)
                for c in range(c_l):
                    for hh in range(oh):
                        for ww in range(ow):
                            model.add_variable(VarDef(vn("zeta", i, l, c, hh, ww),
                                                      BINARY))
                    for hp in range(qh):
                        for wp in range(qw):
                            p = model.add_variable(VarDef(
                                vn("p", i, l, c, hp, wp), CONTINUOUS, 0.0,
                                max(0.0, build.btable.layer(l).a_hi)))
                            cells = [(hp * ps + du, wp * ps + dv)
                                     for du in range(ph) for dv in range(pw)]
                            encode_maxpool(
                                model,
                                [model.var(vn("a", i, l + 1, c, hh, ww))
                                 for hh, ww in cells],
                                p,
                                [model.var(vn("zeta", i, l, c, hh, ww))
                                 for hh, ww in cells],
                                pool_m)
        # flatten and head
        c_last, h_last, w_last = shapes[-1]
        for c in range(c_last):
            for hh in range(h_last):
                for ww in range(w_last):
                    f = flatten_index(c, hh, ww, h_last, w_last)
                    src = _final_map_var(build, i, c, hh, ww)
                    ref = model.add_variable(VarDef(vn("a", i, L, f), CONTINUOUS,
                                                    0.0, float("inf")))
                    model.add_constraint([(1.0, ref), (-1.0, src)], EQ, 0.0,
                                         "flatten")
        for j in range(arch.head_dim):
            out = model.add_variable(VarDef(vn("a", i, L + 1, j), CONTINUOUS,
                                            float("-inf"), float("inf")))
            _head_constraint(build, i, j, out)
        if hyper.loss == LOSS_ABS:
            for j in range(arch.head_dim):
                r = model.add_variable(VarDef(vn("r", i, j), CONTINUOUS,
                                              0.0, float("inf")))
                out = model.var(vn("a", i, L + 1, j))
                t = float(data.targets[i, j])
                model.add_constraint([(1.0, r), (-1.0, out)], GE, -t, "abs_loss")
                model.add_constraint([(1.0, r), (1.0, out)], GE, t, "abs_loss")

    _cnn_objective(build)
    build.built_constraints = len(model.constraints)
    return build


def _add_digits(build, key, target_name, digit_prefix, label, quant):
    model = build.model
    names = tuple(digit_prefix + "[%d]" % t for t in range(build.hyper.bits))
    for nm in names:
        model.add_variable(VarDef(nm, BINARY))
        build.structural.append(nm)
    build._digit_names[key] = names
    terms = [(1.0, model.var(target_name))]
    terms += [(-quant.step * (2 ** t), model.var(nm)) for t, nm in enumerate(names)]
    model.add_constraint(terms, EQ, -quant.w_max, label)


def _final_map_var(build, i, c, hh, ww):
    """Variable holding cell (c, hh, ww) of the last layer's output map."""
    last = build.L - 1
    if build.arch.conv_layers[last].pool is not None:
        return build.model.var(vn("p", i, last, c, hh, ww))
    return build.model.var(vn("a", i, last + 1, c, hh, ww))


def _prev_map_var(build, i, l, cp, hh, ww):
    """Variable holding cell (cp, hh, ww) of the input map of conv layer l."""
    if l == 0:
        return build.model.var(vn("a", i, 0, cp, hh, ww))
    prev = build.arch.conv_layers[l - 1]
    if prev.pool is not None:
        return build.model.var(vn("p", i, l - 1, cp, hh, ww))
    return build.model.var(vn("a", i, l, cp, hh, ww))


def _conv_constraint(build, i, l, c, hh, ww, z_ref):
    model = build.model
    hyper = build.hyper
    layer = build.arch.conv_layers[l]
    c_in = build.out_shapes[l][0]
    kh, kw = layer.kernel
    s = layer.stride
    terms = [(1.0, z_ref), (-1.0, model.var(vn("bc", l, c)))]

    if hyper.mode == VERIFY:
        K = np.asarray(build.fixed_weights[l][0], dtype=float)
        for cp in range(c_in):
            for u in range(kh):
                for v in range(kw):
                    terms.append((-float(K[c, cp, u, v]),
                                  _prev_map_var(build, i, l, cp, hh * s + u, ww * s + v)))
        model.add_constraint(terms, EQ, 0.0, "conv_map")
        return

    if l == 0:
        xi = build.data.inputs[i]
        for cp in range(c_in):
            for u in range(kh):
                for v in range(kw):
                    terms.append((-float(xi[cp, hh * s + u, ww * s + v]),
                                  model.var(vn("Wc", l, c, cp, u, v))))
        model.add_constraint(terms, EQ, 0.0, "conv_map")
        return

    if hyper.mode == TRAIN_BILINEAR:
        quad = []
        for cp in range(c_in):
            for u in range(kh):
                for v in range(kw):
                    quad.append((-1.0, model.var(vn("Wc", l, c, cp, u, v)),
                                 _prev_map_var(build, i, l, cp, hh * s + u, ww * s + v)))
        model.add_bilinear_constraint(quad, terms, EQ, 0.0, "conv_map")
        return

    quant = QuantSpec(hyper.bits, hyper.w_max)
    a_hi = build.btable.layer(l - 1).a_hi
    for cp in range(c_in):
        for u in range(kh):
            for v in range(kw):
                a_ref = _prev_map_var(build, i, l, cp, hh * s + u, ww * s + v)
                digits = [model.var(nm)
                          for nm in build._digit_names[("Wc", l, c, cp, u, v)]]
                _, (p_terms, _) = encode_quantized_product(
                    model, digits, a_ref, 0.0, a_hi, quant,
                    lambda t, i=i, l=l, c=c, cp=cp, u=u, v=v, hh=hh, ww=ww:
                        vn("y", i, l, c, cp, u, v, hh, ww, t))
                terms += [(-cf, r) for cf, r in p_terms]
    model.add_constraint(terms, EQ, 0.0, "conv_map")


def _head_constraint(build, i, j, out_ref):
    model = build.model
    hyper = build.hyper
    L = build.L
    nf = build.head_input_dim()
    terms = [(1.0, out_ref), (-1.0, model.var(vn("b", L, j)))]

    if hyper.mode == VERIFY:
        W = np.asarray(build.fixed_weights[L][0], dtype=float)
        for k in range(nf):
            terms.append((-float(W[j, k]), model.var(vn("a", i, L, k))))
        model.add_constraint(terms, EQ, 0.0, "output_map")
        return
    if hyper.mode == TRAIN_BILINEAR:
        quad = [(-1.0, model.var(vn("W", L, j, k)), model.var(vn("a", i, L, k)))
                for k in range(nf)]
        model.add_bilinear_constraint(quad, terms, EQ, 0.0, "output_map")
        return
    quant = QuantSpec(hyper.bits, hyper.w_max)
    a_hi = build.btable.layer(L - 1).a_hi
    for k in range(nf):
        a_ref = model.var(vn("a", i, L, k))
        digits = [model.var(nm) for nm in build._digit_names[("W", L, j, k)]]
        _, (p_terms, _) = encode_quantized_product(
            model, digits, a_ref, 0.0, a_hi, quant,
            lambda t, i=i, j=j, k=k: vn("y", i, L, j, k, t))
        terms += [(-cf, r) for cf, r in p_terms]
    model.add_constraint(terms, EQ, 0.0, "output_map")


def _cnn_objective(build):
    model = build.model
    hyper = build.hyper
    arch = build.arch
    L = build.L
    shapes = build.out_shapes

    for i in range(build.data.n):
        for j in range(arch.head_dim):
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
    for l, layer in enumerate(arch.conv_layers):
        c_out, c_in = layer.filters, shapes[l][0]
        kh, kw = layer.kernel
        for c in range(c_out):
            for cp in range(c_in):
                for u in range(kh):
                    for v in range(kw):
                        if al:
                            model.add_objective_linear(
                                al, model.var(vn("u", l, c, cp, u, v)))
                        if fr:
                            W = model.var(vn("Wc", l, c, cp, u, v))
                            model.add_objective_quadratic(fr, W, W)
    for j in range(arch.head_dim):
        for k in range(build.head_input_dim()):
            if al:
                model.add_objective_linear(al, model.var(vn("u", L, j, k)))
            if fr:
                W = model.var(vn("W", L, j, k))
                model.add_objective_quadratic(fr, W, W)
    if hyper.beta:
        for l, layer in enumerate(arch.conv_layers):
            for c in range(layer.filters):
                model.add_objective_linear(hyper.beta,
                                           model.var(vn("gamma", l, c)))
