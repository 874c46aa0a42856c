"""Measure one generated workload inside this fresh interpreter.

The workload directory made by ``workloads.py`` becomes the working
directory.  Operations are the CLI commands ``mipnn run`` and ``mipnn build``,
called in process through ``mipnn.cli.main``, and the library reload
``mipnn.read_lp`` / ``read_mps`` of the model that ``run`` wrote.  Every
operation's output is checked; an operation fails when any check does.

With ``--trace 0`` the operations repeat in cycles of run, build, reload
until another cycle would pass ``--seconds``.  Within a cycle an operation is
repeated until it has taken ``MIN_OP_S`` (at most ``MAX_REPS`` times), so that
cheap operations still give enough samples.  With ``--trace 1`` a cycle is one
untraced run plus one traced run and one traced reload.  ``--pins`` holds the
recorded objective and digests of the seed, if any, which the outputs must
match; without them the outputs must agree across the operations of the run.

    python3 perfbench/worker.py --workload W --dir DIR --seconds N \\
        --trace 0|1 --pins JSON --result FILE
"""

import argparse
import csv
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

from mipnn import cli, emit

import tracer
import workloads

MIN_OP_S = 0.5
MAX_REPS = 200
XOR_OBJECTIVE = 0.5800000000000001       # acceptance criterion 6
REL_TOL = 1e-9                           # objective agreement across paths
RUN_OUT, BUILD_OUT = "run_out", "build_out"
RUN_FILES = ("model.{ext}", "solution.txt", "metrics.txt", "stats.txt")
BUILD_FILES = ("model.{ext}", "stats.txt")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def solution_objective(path):
    """The ``# objective`` header of a solution file, as written."""
    with open(path) as fh:
        head = fh.readline().split()
    if head[:2] != ["#", "objective"]:
        raise ValueError("%s has no objective header" % path)
    return head[2]


def read_stats(path):
    """Totals and per-label row counts from a ``stats.txt``."""
    out = {"rows_by_label": {}}
    section = None
    with open(path) as fh:
        for line in fh:
            key, value = line.split()
            if not line.startswith(" "):
                section = key
                out[key] = int(value)
            elif section == "constraints" and not line.startswith("   "):
                out["rows_by_label"][key] = int(value)
            elif section == "variables" and key == "binary":
                out["binary"] = int(value)
    return out


def conv_reference_objective(cfg):
    """The conv-verify objective by plain numpy, independent of mipnn.

    Fixed weights leave the search only the pruning switches, and any
    nonzero kernel forces its switch on, so the optimum is the forward-pass
    loss plus the regularization of the fixed weights plus beta per filter.
    """
    with open(cfg.data, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([[float(v) for v in r[:-1]] for r in rows])
    labels = [float(r[-1]) for r in rows]
    classes = sorted(set(labels))
    t = np.array([[float(c == k) for k in classes] for c in labels])
    w = np.load(cfg.weights)
    K, b, Wh, bh = w["K0"], w["b0"], w["Wh"], w["bh"]
    c, h, wd = (int(s) for s in cfg.input_shape.split(","))
    x = x.reshape(-1, c, h, wd)
    f, _, kh, kw = K.shape
    oh, ow = h - kh + 1, wd - kw + 1
    z = np.zeros((len(x), f, oh, ow))
    for u in range(kh):
        for v in range(kw):
            z += np.einsum("nchw,fc->nfhw", x[:, :, u:u + oh, v:v + ow],
                           K[:, :, u, v])
    act = np.maximum(z + b[None, :, None, None], 0.0)
    ph, pw = oh // 2, ow // 2
    pooled = act[:, :, :2 * ph, :2 * pw].reshape(len(x), f, ph, 2, pw, 2)
    out = pooled.max(axis=(3, 5)).reshape(len(x), -1) @ Wh.T + bh
    l1 = np.abs(K).sum() + np.abs(Wh).sum()
    fro = (K ** 2).sum() + (Wh ** 2).sum()
    return float(((out - t) ** 2).sum() + cfg.alpha * cfg.lam * l1
                 + 0.5 * cfg.alpha * (1.0 - cfg.lam) * fro + cfg.beta * f)


class Session:
    """Runs operations and checks their outputs."""

    def __init__(self, workload, pins):
        cfg = cli.parse_config(workloads.CONFIG)
        self.workload = workload
        self.ext = cfg.emit
        self.pins = pins                 # recorded digests for this seed, or {}
        self.first = {}                  # file -> digest first seen here
        self.peak_rss_mb = None          # after the first reload's read
        self.attempted = 0
        self.failures = []               # {"op", "rc", "problems"}
        self.reference = (conv_reference_objective(cfg)
                          if workload == "conv-verify" else None)
        self.standin = (solution_objective(workloads.STANDIN)
                        if workload == "dense-external" else None)

    # -- operations --------------------------------------------------------

    def _timed(self, name, fn, check):
        """Seconds the operation took, or None when it failed."""
        self.attempted += 1
        rc = None
        t0 = time.perf_counter()
        try:
            value = fn()
            seconds = time.perf_counter() - t0
            if name != "reload":
                rc = value
            problems = check(value)
        except Exception as e:                   # counted, never dropped
            traceback.print_exc()
            problems = ["raised %s: %s" % (type(e).__name__, e)]
        if problems:
            self.failures.append({"op": name, "rc": rc, "problems": problems})
            return None
        return seconds

    def run(self):
        _clear(RUN_OUT)
        return self._timed(
            "run", lambda: cli.main(["run", "--config", workloads.CONFIG,
                                     "--out", RUN_OUT]), self._check_run)

    def build(self):
        _clear(BUILD_OUT)
        return self._timed(
            "build", lambda: cli.main(["build", "--config", workloads.CONFIG,
                                       "--out", BUILD_OUT]), self._check_build)

    def reload(self):
        path = os.path.join(RUN_OUT, "model." + self.ext)
        read = emit.read_lp if self.ext == "lp" else emit.read_mps
        return self._timed("reload", lambda: read(path),
                           lambda model: self._check_reload(model, path))

    # -- checks ------------------------------------------------------------

    def _digests(self, out, files):
        problems = []
        for pattern in files:
            name = pattern.format(ext=self.ext)
            digest = sha256(os.path.join(out, name))
            want = self.pins.get(name) or self.first.setdefault(name, digest)
            if digest != want:
                problems.append("%s/%s digest %s, expected %s"
                                % (out, name, digest[:12], want[:12]))
        return problems

    def _check_run(self, rc):
        if rc != cli.EXIT_OK:
            return ["exit code %d" % rc]
        problems = []
        with open(os.path.join(RUN_OUT, "audit.txt")) as fh:
            audit = fh.read().splitlines()
        if audit[0] != "ok":
            problems.append("audit says %r" % audit[0])
        text = solution_objective(os.path.join(RUN_OUT, "solution.txt"))
        obj = float(text)
        if "objective" in self.pins and text != self.pins["objective"]:
            problems.append("objective %s, pinned %s"
                            % (text, self.pins["objective"]))
        if self.workload == "xor-exact" and obj != XOR_OBJECTIVE:
            problems.append("objective %r, criterion 6 pins %r"
                            % (obj, XOR_OBJECTIVE))
        if self.workload == "dense-external":
            audited = float(audit[1].split()[1])
            if text != self.standin:
                problems.append("objective %s, stand-in header %s"
                                % (text, self.standin))
            if abs(audited - obj) > REL_TOL * abs(obj):
                problems.append("audited objective %r, solution %r"
                                % (audited, obj))
        if self.reference is not None and (
                abs(obj - self.reference) > REL_TOL * abs(self.reference)):
            problems.append("objective %r, reference forward pass %r"
                            % (obj, self.reference))
        return problems + self._digests(RUN_OUT, RUN_FILES)

    def _check_build(self, rc):
        if rc != cli.EXIT_OK:
            return ["exit code %d" % rc]
        return self._digests(BUILD_OUT, BUILD_FILES)

    def _check_reload(self, model, path):
        if self.peak_rss_mb is None:
            # the peak of the CLI commands and the reader, taken before the
            # check builds its own copy of the model text
            self.peak_rss_mb = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        text = emit.lp_text(model) if self.ext == "lp" else emit.mps_text(model)
        if hashlib.sha256(text.encode()).hexdigest() != sha256(path):
            return ["re-emitted %s differs from the file read" % path]
        return []


def _clear(out):
    """Start an operation from an empty output directory.  Rewriting a file in
    place can make the filesystem flush it on close (ext4 does so after a
    truncation), which would time the disk rather than the program."""
    shutil.rmtree(out, ignore_errors=True)


def _once(op):
    gc.collect()
    return op()


def _repeat(op, samples):
    """Run ``op`` until it has taken MIN_OP_S, at most MAX_REPS times.

    The heap is collected before the first repetition only: collecting before
    each one would leave every cheap repetition with cold caches, and its
    time would then swing with the memory traffic of the rest of the host.
    """
    spent, reps = 0.0, 0
    gc.collect()
    while reps < MAX_REPS and spent < MIN_OP_S:
        seconds = op()
        reps += 1
        if seconds is None:
            break
        samples.append(seconds)
        spent += seconds


def measure(workload, seconds, trace, pins):
    """Cycles of operations until another cycle would pass ``seconds``."""
    s = Session(workload, pins)
    samples = {"run": [], "build": [], "reload": [], "traced_run": []}
    result = {"samples": samples, "layers": []}
    t_start = time.perf_counter()
    tr = tracer.Tracer()
    cycle = 0
    while True:
        t_cycle = time.perf_counter()
        if trace:
            # alternate which of the pair runs first, so neither always
            # meets a cold process
            tr.run = cycle
            untraced = _once(s.run) if cycle % 2 == 0 else None
            with tr.install():
                traced = _once(s.run)
                _once(s.reload)
            if cycle % 2:
                untraced = _once(s.run)
            if untraced is not None and traced is not None:
                samples["run"].append(untraced)
                samples["traced_run"].append(traced)
                spans = [sp for sp in tr.spans if sp.run == cycle]
                stats = read_stats(os.path.join(RUN_OUT, "stats.txt"))
                size = os.path.getsize(os.path.join(RUN_OUT, "model." + s.ext))
                result["layers"].append(tracer.layer_metrics(spans, stats, size))
        else:
            _repeat(s.run, samples["run"])
            _repeat(s.build, samples["build"])
            _repeat(s.reload, samples["reload"])
        cycle += 1
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) > seconds:
            break
    stats_path = os.path.join(RUN_OUT, "stats.txt")
    model_path = os.path.join(RUN_OUT, "model." + s.ext)
    if os.path.exists(stats_path) and os.path.exists(model_path):
        result["model_rows"] = read_stats(stats_path)["constraints"]
        result["model_bytes"] = os.path.getsize(model_path)
    if s.peak_rss_mb is not None:
        result["peak_rss_mb"] = s.peak_rss_mb
    if trace:
        tr.dump("spans.json")
    result.update(attempted=s.attempted, failures=s.failures)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pins", default="{}", help="recorded digests, as JSON")
    ap.add_argument("--result", required=True)
    ns = ap.parse_args(argv)
    result_path = os.path.abspath(ns.result)
    os.chdir(ns.dir)
    result = measure(ns.workload, ns.seconds, ns.trace, json.loads(ns.pins))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
