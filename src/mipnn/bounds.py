"""Pre-activation interval bounds feeding every ReLU big-M constant.

Bounds come from interval propagation through the architecture, which is sound
for any weights inside the declared boxes.  Each interval is widened to include
0 so the ReLU encoding stays well posed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .nnspec import maxpool2d, param_tensors


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


def _widen(lo, hi):
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

    Each hidden layer of ``param_tensors(arch)`` meets its input map at
    positions (``Tensor.patches``): a conv layer at each of its output
    cells, a dense layer once, on the map as it is.  A unit's bounds are the
    extremes over its positions.
    """
    a_lo = np.asarray(input_lo, dtype=float)
    a_hi = np.asarray(input_hi, dtype=float)
    if np.any(~np.isfinite(a_lo)) or np.any(~np.isfinite(a_hi)):
        raise BoundsError("input box must be finite")
    layers = []
    for t in param_tensors(arch)[:-1]:
        units, pos = t.shape[0], math.prod(t.units[1:])
        cells = [t.patches(a).reshape(pos, -1) for a in (a_lo, a_hi)]    # (P, entries)
        if fixed_weights is None:
            w_lo, w_hi, b_lo, b_hi = weight_lo, weight_hi, weight_lo, weight_hi
        else:
            W, b = fixed_weights[t.l]
            w_lo = w_hi = np.asarray(W, dtype=float).reshape(units, 1, -1)
            b_lo = b_hi = np.asarray(b, dtype=float)[:, None]
        z_lo, z_hi = _interval_dot(w_lo, w_hi, *cells)
        # scalar boxes give every unit the same (P,) bounds
        z_lo = np.broadcast_to(z_lo + b_lo, (units, pos))
        z_hi = np.broadcast_to(z_hi + b_hi, (units, pos))
        layers.append(LayerBounds(t.l, *_widen(z_lo.min(axis=1), z_hi.max(axis=1)),
                                  "interval"))
        a_lo, a_hi = (np.maximum(z, 0.0).reshape(t.units) for z in (z_lo, z_hi))
        if t.pool is not None:
            a_lo, a_hi = (maxpool2d(a, *t.pool) for a in (a_lo, a_hi))
    return BoundsTable(layers)
