"""Compile a convolutional spec: convolution unrolling, ReLU, max-pool
selection, channel-major flattening, channel pruning and symmetry breaking.

Naming (all 0-based):
  kernels        Wc[l][c][cp][u][v], biases bc[l][c], l in 0..L-1
  kernel l1 aux  u[l][c][cp][u][v]
  head           W[L][j][k], b[L][j], u[L][j][k]   (L = number of conv layers)
  activations    a[i][0][c][h][w] input; a[i][l+1][c][h][w] post-ReLU map
  pooled         p[i][l][c][h'][w']                (l = conv layer index)
  pool selectors zeta[i][l][c][h][w]               (pre-pool map coordinates,
                                                    so pool windows may not overlap)
  flattened      a[i][L][f]                        (channel-major f)
  head output    a[i][L+1][j]
  indicators     z/delta[i][l][c][h][w], gamma[l][c]
"""

import numpy as np

from .ir import BINARY, CONTINUOUS, EQ, GE, LE, Assignment, ModelIR, VarDef
from .dense import (Build, BuildError, add_objective, declare_params, fill,
                    head_rows, input_rows, l1_rows, net_quant, prune_rows,
                    relu_units, vn)
from .nnspec import (LOSS_ABS, TRAIN_QUANTIZED, VERIFY, conv_map_shapes,
                     validate_arch)
from .recon import ConvNet, flatten_index, forward_trace, objective_breakdown


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


class ConvBuild(Build):
    def __init__(self, model, arch, data, hyper, btable, fixed_weights):
        super().__init__(model, arch, data, hyper, btable, fixed_weights,
                         conv_map_shapes(arch))
        self.out_shapes = validate_arch(arch)     # post-pool, incl. input at [0]

    def pool_big_m(self, l):
        if self.hyper.pool_global_m:
            return self.hyper.big_m
        return self.btable.layer(l).a_hi

    def map_source(self, l):
        """(base, index) naming the variables base[i][index][c][h][w] of the
        map conv layer l reads; at l = L, the map the flatten reads."""
        if l > 0 and self.arch.conv_layers[l - 1].pool is not None:
            return "p", l - 1
        return "a", l

    # solution handling ----------------------------------------------------

    def net(self, params, gammas):
        layers = self.arch.conv_layers
        return ConvNet(kernels=params[:-1], head=params[-1], gamma=gammas,
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
        self.fill_params(values, net.kernels + [net.head])
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
            for t, layer in zip(self.tensors[1:-1], self.arch.conv_layers[1:]):
                self.fill_products(values, bits, t, _patches(
                    trace[t.l - 1][1], layer, self.map_shapes[t.l][1:]))
            self.fill_products(values, bits, self.tensors[-1], flat)
        return Assignment(values=values), obj, viol

    def _assemble_selectors(self, values, l, act):
        """zeta of conv layer l: each pool window selects its first maximal
        cell of the post-ReLU map ``act``; cells no window covers stay 0."""
        (ph, pw), ps = self.arch.conv_layers[l].pool
        fill(values, "zeta", np.zeros(act.shape), l, at=1)
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


def _patches(a, layer, out_hw):
    """patches[i, c, u, v, h, w] = a[i, c, h * stride + u, w * stride + v]:
    the input cell kernel entry (c, u, v) meets at output position (h, w)."""
    (kh, kw), s = layer.kernel, layer.stride
    oh, ow = out_hw
    rows = np.arange(kh)[:, None, None, None] + s * np.arange(oh)[:, None]
    cols = np.arange(kw)[:, None, None] + s * np.arange(ow)
    return a[:, :, rows, cols]


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
    if hyper.mode == TRAIN_QUANTIZED and not hyper.quantize_biases:
        raise BuildError("quantized conv mode requires quantized biases")
    for l, layer in enumerate(arch.conv_layers):
        # one selector per pre-pool cell: overlapping windows would share them
        if layer.pool is not None and layer.pool[1] < max(layer.pool[0]):
            raise BuildError("pool %r of conv layer %d overlaps: its stride must "
                             "be at least its window" % (layer.pool, l))

    model = ModelIR("cnn")
    build = ConvBuild(model, arch, data, hyper, btable, weights)
    M = hyper.big_m
    declare_params(build)

    # parameter-side constraints -------------------------------------------
    convs = build.tensors[:-1]
    for t in build.tensors:
        for row in range(t.shape[0]):
            g = model.var(t.gates[row]) if t.gates else None
            for idx in np.ndindex(t.shape[1:]):
                W = model.var(vn(t.w, t.l, row, *idx))
                l1_rows(model, model.var(vn("u", t.l, row, *idx)), W)
                if g is not None:
                    prune_rows(model, W, g, M, "prune_weights")
            if g is not None:
                prune_rows(model, model.var(vn(t.b, t.l, row)), g, M, "prune_biases")
    if hyper.symmetry:
        for t in convs:
            for c in range(t.shape[0] - 1):
                terms = []
                for idx in np.ndindex(t.shape[1:]):
                    terms.append((1.0, model.var(vn("u", t.l, c, *idx))))
                    terms.append((-1.0, model.var(vn("u", t.l, c + 1, *idx))))
                model.add_constraint(terms, GE, 0.0, "symmetry_breaking")

    # per-sample network ----------------------------------------------------
    # per conv layer and output position, each kernel entry with its input cell
    windows = []
    for t, layer in zip(convs, arch.conv_layers):
        s = layer.stride
        entries = list(np.ndindex(t.shape[1:]))
        windows.append([((hh, ww), [(e, (e[0], hh * s + e[1], ww * s + e[2]))
                                    for e in entries])
                        for hh, ww in np.ndindex(build.map_shapes[t.l][1:])])
    for i in range(data.n):
        input_rows(build, i)
        for t, layer in zip(convs, arch.conv_layers):
            l = t.l
            src = build.map_source(l)
            for c in range(t.shape[0]):
                relu_units(build, t, i, c, src, windows[l])
            if layer.pool is not None:
                c_l, oh, ow = build.map_shapes[l]
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
        # flatten, channel-major, and head
        base, index = build.map_source(L)
        c_last, h_last, w_last = build.out_shapes[-1]
        for c, hh, ww in np.ndindex(c_last, h_last, w_last):
            f = flatten_index(c, hh, ww, h_last, w_last)
            src = model.var(vn(base, i, index, c, hh, ww))
            ref = model.add_variable(VarDef(vn("a", i, L, f), CONTINUOUS,
                                            0.0, float("inf")))
            model.add_constraint([(1.0, ref), (-1.0, src)], EQ, 0.0, "flatten")
        head_rows(build, i)

    add_objective(build)
    build.built_constraints = len(model.constraints)
    return build
