"""Seeded inputs for the benchmark workloads.

Each workload is a directory holding ``bench.cfg`` plus the data files it
names, all by relative path, so the program is run with that directory as its
working directory and sees nothing but these files.

Run as a script, this module generates one workload and prints, as its last
line, the seconds taken by ``import mipnn`` plus the generation: one sample of
the benchmark's ``setup_s``.

    python3 perfbench/workloads.py --workload dense-external --seed 1 --dir DIR
"""

import argparse
import csv
import os
import sys
import time

WORKLOADS = ("xor-exact", "dense-external", "conv-verify")

CONFIG = "bench.cfg"
STANDIN = "standin.sol"          # the stand-in external solver's answer

# Instance sizes; ``n`` overrides them only to shrink the instance in tests.
DENSE_N, DENSE_FEATURES, DENSE_HIDDEN, CLASSES = 100, 8, (16, 16), 3
CONV_N, CONV_SHAPE, CONV_FILTERS, CONV_KERNEL = 50, (1, 12, 12), 4, 3
CONV_LAYERS = "%dx%dx%dp2x2s2" % (CONV_FILTERS, CONV_KERNEL, CONV_KERNEL)

XOR_CFG = """\
data = data.csv
label = label
one_hot = false
arch = dense
hidden = 2
mode = train-quantized
loss = squared
alpha = 0.1
lambda = 0.9
beta = 0.01
bigM = 10
bits = 2
wmax = 1.0
quantize_biases = true
symmetry = true
engine = bnb
emit = lp
"""

# The stand-in solver checks that the model file was written and copies the
# prepared solution into place.  bigM only gates |W|, |b| and |z| here; the
# largest pre-activation of an 8-16-16 net with weights and inputs in [-1, 1]
# and [0, 1] is 16 * 9 + 1.  Seeded digits would break the symmetry-ordering
# rows, so symmetry is off.
DENSE_CFG = """\
data = data.csv
label = label
one_hot = true
arch = dense
hidden = %s
mode = train-quantized
loss = squared
alpha = 0.1
lambda = 0.9
beta = 0.01
bits = 2
wmax = 1.0
bigM = 1000
symmetry = false
engine = external
solver = sh -c 'test -s "$1" && cp %s "$2"' standin {model} {solution}
emit = lp
"""

# Random kernels break the symmetry-ordering rows, so symmetry is off.
CONV_CFG = """\
data = data.csv
label = label
one_hot = true
arch = conv
input_shape = %s
conv = %s
weights = weights.npz
mode = verify
loss = squared
alpha = 0.1
lambda = 0.9
beta = 0.01
symmetry = false
engine = oracle
emit = mps
"""


def _write_csv(path, features, labels):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x%d" % k for k in range(features.shape[1])] + ["label"])
        for row, lab in zip(features, labels):
            w.writerow([repr(float(v)) for v in row] + [int(lab)])


def _labels(rng, n):
    """Balanced class labels in seeded order; every class occurs when n allows."""
    return rng.permutation(n) % min(CLASSES, n)


def _xor(rng, workdir, n):
    """The fixed four-point XOR instance; the seed only orders its rows."""
    rows = ["0,0,0", "0,1,1", "1,0,1", "1,1,0"]
    with open(os.path.join(workdir, "data.csv"), "w") as fh:
        fh.write("x1,x2,label\n")
        for i in rng.permutation(len(rows)):
            fh.write(rows[i] + "\n")
    with open(os.path.join(workdir, CONFIG), "w") as fh:
        fh.write(XOR_CFG)


def _dense(rng, workdir, n):
    """Uniform features and a stand-in solution built from seeded digits."""
    from mipnn import cli, emit
    n = DENSE_N if n is None else n
    _write_csv(os.path.join(workdir, "data.csv"),
               rng.uniform(0.0, 1.0, size=(n, DENSE_FEATURES)), _labels(rng, n))
    with open(os.path.join(workdir, CONFIG), "w") as fh:
        fh.write(DENSE_CFG % (",".join(map(str, DENSE_HIDDEN)), STANDIN))

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        prep = cli.prepare(cli.parse_config(CONFIG))
    finally:
        os.chdir(cwd)
    build = prep.build
    bits = {name: 1.0 for name in build.structural}      # every layer active
    widths = build.arch.widths
    for l in range(build.L + 1):
        n_out, n_in = widths[l + 1], widths[l]
        codes = rng.integers(0, 2 ** build.hyper.bits, size=(n_out, n_in + 1))
        for j in range(n_out):
            for k in range(n_in + 1):
                for t, d in enumerate(build._digit_names[(l, j, k)]):
                    bits[d] = float((codes[j, k] >> t) & 1)
    asg, obj, viol = build.assemble(bits, prep.cfg.tolerance)
    if viol > prep.cfg.tolerance:
        raise RuntimeError("stand-in solution violates the model by %g" % viol)
    emit.write_solution(build.model, asg, os.path.join(workdir, STANDIN),
                        objective=obj)


def _conv(rng, workdir, n):
    """Uniform images and seeded fixed weights for verification mode."""
    import numpy as np
    n = CONV_N if n is None else n
    c, h, w = CONV_SHAPE
    labels = _labels(rng, n)
    _write_csv(os.path.join(workdir, "data.csv"),
               rng.uniform(0.0, 1.0, size=(n, c * h * w)), labels)
    f, k = CONV_FILTERS, CONV_KERNEL
    pooled = ((h - k + 1) // 2) * ((w - k + 1) // 2)
    classes = len(set(labels.tolist()))
    np.savez(os.path.join(workdir, "weights.npz"),
             K0=rng.uniform(-1.0, 1.0, size=(f, c, k, k)),
             b0=rng.uniform(-0.5, 0.5, size=f),
             Wh=rng.uniform(-1.0, 1.0, size=(classes, f * pooled)),
             bh=rng.uniform(-0.5, 0.5, size=classes))
    with open(os.path.join(workdir, CONFIG), "w") as fh:
        fh.write(CONV_CFG % (",".join(map(str, CONV_SHAPE)), CONV_LAYERS))


_GENERATORS = {"xor-exact": _xor, "dense-external": _dense, "conv-verify": _conv}


def generate(workload, seed, workdir, n=None):
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    import numpy as np
    os.makedirs(workdir, exist_ok=True)
    _GENERATORS[workload](np.random.default_rng(seed), workdir, n)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--n", type=int)
    ns = ap.parse_args(argv)
    t0 = time.perf_counter()
    import mipnn  # noqa: F401  (its import is part of set-up time)
    generate(ns.workload, ns.seed, ns.dir, ns.n)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
