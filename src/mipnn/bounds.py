"""Pre-activation interval bounds feeding every ReLU big-M constant.

Bounds come from interval propagation through the architecture, which is sound
for any weights inside the declared boxes.  Each interval is widened to include
0 so the ReLU encoding stays well posed.
"""

from dataclasses import dataclass

import numpy as np

from .nnspec import ConvArch, DenseArch, conv_map_shapes


class BoundsError(Exception):
    pass


@dataclass
class LayerBounds:
    layer: int                 # 0-based hidden/conv layer index
    unit_lo: np.ndarray        # per unit (dense) or per channel (conv)
    unit_hi: np.ndarray
    provenance: str            # "interval"

    @property
    def z_lo(self):
        return float(self.unit_lo.min())

    @property
    def z_hi(self):
        return float(self.unit_hi.max())

    @property
    def a_hi(self):
        return max(0.0, self.z_hi)


class BoundsTable:
    def __init__(self, layers):
        self.layers = list(layers)

    def __len__(self):
        return len(self.layers)

    def layer(self, l):
        return self.layers[l]

    def relu_bounds(self, l, unit=None):
        """(z_lo, z_hi) for hidden layer l, collapsed unless a unit is given."""
        lb = self.layers[l]
        if unit is None:
            return lb.z_lo, lb.z_hi
        return float(lb.unit_lo[unit]), float(lb.unit_hi[unit])

    def to_text(self):
        lines = ["# layer unit z_lo z_hi provenance"]
        for lb in self.layers:
            lines.append("%d * %r %r %s" % (lb.layer, lb.z_lo, lb.z_hi, lb.provenance))
            for j in range(len(lb.unit_lo)):
                lines.append("%d %d %r %r %s"
                             % (lb.layer, j, float(lb.unit_lo[j]),
                                float(lb.unit_hi[j]), lb.provenance))
        return "\n".join(lines) + "\n"


def _widen(lo, hi, slack):
    lo = np.where(lo < 0, lo * (1.0 + slack), lo)
    hi = np.where(hi > 0, hi * (1.0 + slack), hi)
    return np.minimum(lo, 0.0), np.maximum(hi, 0.0)


def _interval_dot(w_lo, w_hi, a_lo, a_hi):
    """Endpoint products for sum_k w_k * a_k with elementwise intervals."""
    cands = (w_lo * a_lo, w_lo * a_hi, w_hi * a_lo, w_hi * a_hi)
    lo = np.minimum.reduce(cands).sum(axis=-1)
    hi = np.maximum.reduce(cands).sum(axis=-1)
    return lo, hi


def propagate_bounds(arch, input_lo, input_hi, weight_lo, weight_hi,
                     fixed_weights=None):
    """Interval forward pass yielding sound per-unit pre-activation bounds.

    ``weight_lo``/``weight_hi`` are scalars boxing every weight and bias; pass
    ``fixed_weights`` (a list of (W, b) arrays) to use degenerate boxes
    instead, e.g. for verification of a given network.
    """
    input_lo = np.asarray(input_lo, dtype=float)
    input_hi = np.asarray(input_hi, dtype=float)
    if np.any(~np.isfinite(input_lo)) or np.any(~np.isfinite(input_hi)):
        raise BoundsError("input box must be finite")
    if isinstance(arch, DenseArch):
        return _propagate_dense(arch, input_lo, input_hi, weight_lo, weight_hi,
                                fixed_weights)
    if isinstance(arch, ConvArch):
        return _propagate_conv(arch, input_lo, input_hi, weight_lo, weight_hi,
                               fixed_weights)
    raise TypeError("unknown architecture %r" % (arch,))


def _propagate_dense(arch, a_lo, a_hi, w_lo_s, w_hi_s, fixed):
    widths = arch.widths
    layers = []
    for l in range(arch.num_hidden + 1):
        n_out, n_in = widths[l + 1], widths[l]
        if fixed is not None:
            W, b = fixed[l]
            w_lo = w_hi = np.asarray(W, dtype=float)
            b_lo = b_hi = np.asarray(b, dtype=float)
        else:
            w_lo = np.full((n_out, n_in), w_lo_s)
            w_hi = np.full((n_out, n_in), w_hi_s)
            b_lo = np.full(n_out, w_lo_s)
            b_hi = np.full(n_out, w_hi_s)
        z_lo, z_hi = _interval_dot(w_lo, w_hi, a_lo[None, :], a_hi[None, :])
        z_lo, z_hi = z_lo + b_lo, z_hi + b_hi
        if l < arch.num_hidden:
            layers.append(LayerBounds(l, z_lo, z_hi, "interval"))
            a_lo, a_hi = np.maximum(z_lo, 0.0), np.maximum(z_hi, 0.0)
    table = BoundsTable(layers)
    for lb in table.layers:
        lb.unit_lo, lb.unit_hi = _widen(lb.unit_lo, lb.unit_hi, 0.0)
    return table


def _propagate_conv(arch, a_lo, a_hi, w_lo_s, w_hi_s, fixed):
    map_shapes = conv_map_shapes(arch)
    layers = []
    for l, layer in enumerate(arch.conv_layers):
        c_out, oh, ow = map_shapes[l]
        c_in = a_lo.shape[0]
        kh, kw = layer.kernel
        if fixed is not None:
            K, b = fixed[l]
            k_lo = k_hi = np.asarray(K, dtype=float)
            b_lo = b_hi = np.asarray(b, dtype=float)
        else:
            k_lo = np.full((c_out, c_in, kh, kw), w_lo_s)
            k_hi = np.full((c_out, c_in, kh, kw), w_hi_s)
            b_lo = np.full(c_out, w_lo_s)
            b_hi = np.full(c_out, w_hi_s)
        z_lo = np.empty((c_out, oh, ow))
        z_hi = np.empty((c_out, oh, ow))
        s = layer.stride
        for h in range(oh):
            for w in range(ow):
                patch_lo = a_lo[:, h * s:h * s + kh, w * s:w * s + kw].ravel()
                patch_hi = a_hi[:, h * s:h * s + kh, w * s:w * s + kw].ravel()
                lo, hi = _interval_dot(k_lo.reshape(c_out, -1),
                                       k_hi.reshape(c_out, -1),
                                       patch_lo[None, :], patch_hi[None, :])
                z_lo[:, h, w] = lo + b_lo
                z_hi[:, h, w] = hi + b_hi
        ch_lo = z_lo.reshape(c_out, -1).min(axis=1)
        ch_hi = z_hi.reshape(c_out, -1).max(axis=1)
        ch_lo, ch_hi = _widen(ch_lo, ch_hi, 0.0)
        layers.append(LayerBounds(l, ch_lo, ch_hi, "interval"))
        a_lo = np.maximum(z_lo, 0.0)
        a_hi = np.maximum(z_hi, 0.0)
        if layer.pool is not None:
            (ph, pw), ps = layer.pool
            qh = (oh - ph) // ps + 1
            qw = (ow - pw) // ps + 1
            p_lo = np.empty((c_out, qh, qw))
            p_hi = np.empty((c_out, qh, qw))
            for h in range(qh):
                for w in range(qw):
                    win_lo = a_lo[:, h * ps:h * ps + ph, w * ps:w * ps + pw]
                    win_hi = a_hi[:, h * ps:h * ps + ph, w * ps:w * ps + pw]
                    p_lo[:, h, w] = win_lo.reshape(c_out, -1).max(axis=1)
                    p_hi[:, h, w] = win_hi.reshape(c_out, -1).max(axis=1)
            a_lo, a_hi = p_lo, p_hi
    return BoundsTable(layers)
