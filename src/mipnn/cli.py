"""Pipeline driver: build models from a config, solve, audit, evaluate, report.

Configs are flat ``key = value`` files (``#`` comments); command-line flags
override config values.  Artifacts are plain text and byte-identical across
reruns of the same config, except run.log: its ``# time`` lines give the
build, solve and total wall time, its ``# count`` lines the search's nodes,
candidates, bound and proof flag and the largest |coefficient| per constraint
label.

Exit codes: 0 success, 1 configuration or usage error, 2 audit failure,
3 infeasible model, 4 external solver failure.
"""

import argparse
import concurrent.futures
import math
import os
import re
import shlex
import subprocess
import sys
import time
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from . import emit, nnspec, oracle, recon
from .cnn import build_cnn
from .dense import BuildError, build_dense, param_box
from .nnspec import (LOSS_SQUARED, MODES, VERIFY, ConvArch, ConvLayer, DenseArch,
                     Dataset, Hyper, param_tensors)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

SOLVER_ENV = "MIPNN_SOLVER"


class ConfigError(Exception):
    pass


def _key(default, key=None, flag=False, choices=None, one_of=None, limit=None):
    """A RunConfig field with its config key's declaration: ``key``, its
    spelling when not the field's name; ``flag``, whether ``--<key>``
    overrides it, taking ``choices``; ``one_of``, choices a config value is
    held to as well; ``limit``, a ``(test, what)`` pair that NaN fails.
    ``_check_values`` applies both; Hyper checks the hyperparameters."""
    if one_of:
        choices = one_of
        limit = (lambda v: v in one_of, "one of " + ", ".join(one_of))
    return field(default=default, metadata={"key": key, "flag": flag,
                                             "choices": choices, "limit": limit})


@dataclass
class RunConfig:
    data: str = None
    label: str = "label"
    split: str = None             # optional file of evaluation sample indices
    out: str = _key("out", flag=True)
    arch: str = "dense"           # dense | conv
    hidden: str = ""              # comma list of dense hidden widths
    input_shape: str = ""         # C,H,W for conv
    conv: str = ""                # conv layer tokens, comma separated
    weights: str = None           # npz of fixed weights (verification mode)
    standardize: bool = False
    one_hot: bool = False
    # random sample subset size (0 = all)
    subset: int = _key(0, limit=(lambda v: v >= 0, "at least 0"))
    mode: str = _key(VERIFY, flag=True, choices=MODES)
    loss: str = LOSS_SQUARED
    alpha: float = _key(0.1, flag=True)
    lam: float = _key(0.9, key="lambda", flag=True)
    beta: float = _key(0.01, flag=True)
    big_m: float = _key(10.0, key="bigM", flag=True)
    bits: int = _key(2, flag=True)
    w_max: float = _key(1.0, key="wmax")
    quantize_biases: bool = True
    symmetry: bool = True
    pool_global_m: bool = False
    engine: str = _key("bnb", flag=True, one_of=("oracle", "bnb", "external"))
    solver: str = _key(None, flag=True)   # external argv template
    emit: str = _key("lp", flag=True, one_of=("lp", "mps"))
    tolerance: float = _key(1e-6, flag=True,
                            limit=(lambda v: v >= 0, "a number at least 0"))
    timeout: float = _key(None, flag=True,
                          limit=(lambda v: v is None or v > 0, "a number above 0"))
    limit_bits: int = _key(24, limit=(lambda v: v >= 0, "at least 0"))
    budget: int = _key(10 ** 7, limit=(lambda v: v >= 1, "at least 1"))
    seed: int = _key(0, flag=True)


# config key -> RunConfig field
_FIELDS = {f.metadata.get("key") or f.name: f for f in fields(RunConfig)}
_FLAGGED = [(key, f) for key, f in _FIELDS.items() if f.metadata.get("flag")]
_LIMITED = [(key, f.name, f.metadata["limit"]) for key, f in _FIELDS.items()
            if f.metadata.get("limit")]

_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


def parse_config(path):
    """Flat ``key = value`` lines into a RunConfig, each value coerced to
    its field's type."""
    cfg = RunConfig()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
            key, val = (s.strip() for s in line.split("=", 1))
            f = _FIELDS.get(key)
            if f is None:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                value = _BOOL[val.lower()] if f.type is bool else f.type(val)
            except (ValueError, KeyError):
                raise ConfigError("%s:%d: bad value %r for %s"
                                  % (path, lineno, val, f.name))
            setattr(cfg, f.name, value)
    return cfg


def _check_values(cfg):
    """A ConfigError naming the first key whose value is outside its
    field's ``one_of`` or ``limit``."""
    for key, name, (ok, what) in _LIMITED:
        value = getattr(cfg, name)
        if not ok(value):
            raise ConfigError("%s must be %s, not %r" % (key, what, value))


_CONV_RE = re.compile(
    r"^(?P<f>\d+)x(?P<kh>\d+)x(?P<kw>\d+)"
    r"(?:s(?P<s>\d+))?"
    r"(?:p(?P<ph>\d+)x(?P<pw>\d+)s(?P<ps>\d+))?$")


def parse_conv_layers(text):
    """Layer tokens like ``2x3x3`` (2 filters, 3x3 kernel), with optional
    ``s2`` conv stride and ``p2x2s2`` pooling suffixes, comma separated."""
    layers = []
    for token in text.split(","):
        token = token.strip()
        m = _CONV_RE.match(token)
        if not m:
            raise ConfigError("bad conv layer token %r" % token)
        pool = None
        if m.group("ph"):
            pool = ((int(m.group("ph")), int(m.group("pw"))), int(m.group("ps")))
        try:
            layers.append(ConvLayer(filters=int(m.group("f")),
                                    kernel=(int(m.group("kh")), int(m.group("kw"))),
                                    stride=int(m.group("s") or 1),
                                    pool=pool))
        except nnspec.SpecError as e:
            raise ConfigError("bad conv layer token %r: %s" % (token, e)) from None
    return tuple(layers)


def _ints(cfg, key):
    """The comma-separated integers of config key ``key``."""
    text = getattr(cfg, key)
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError("%s must be comma-separated integers, not %r"
                          % (key, text)) from None


def load_weights_npz(path, arch):
    """Fixed weights from an npz: dense ``W0,b0,W1,b1,...``; conv ``K0,b0,...``
    per conv layer plus head ``Wh,bh``, each of the shape its tensor in
    ``param_tensors(arch)`` has."""
    tensors = param_tensors(arch)
    if isinstance(arch, DenseArch):
        keys = [("W%d" % t.l, "b%d" % t.l) for t in tensors]
    else:
        keys = [("K%d" % t.l, "b%d" % t.l) for t in tensors[:-1]] + [("Wh", "bh")]
    with open(path, "rb") as fh:
        try:
            z = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile):
            z = None
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ConfigError("%s: not an npz archive" % path)
        try:
            pairs = [tuple(z[name] for name in names) for names in keys]
        except KeyError as e:
            raise ConfigError("%s: missing array %s" % (path, e))
    for t, names, pair in zip(tensors, keys, pairs):
        for name, array, shape in zip(names, pair, (t.shape, t.shape[:1])):
            if array.shape != shape:
                raise ConfigError("%s: array %s has shape %r, expected %r"
                                  % (path, name, array.shape, shape))
    return pairs


@dataclass
class Prepared:
    cfg: RunConfig
    arch: object
    data: Dataset
    hyper: Hyper
    btable: object
    build: object
    fixed_weights: list = None
    eval_split: list = None


def prepare(cfg):
    """Check the values, load data, derive the architecture and bounds, and
    build the model."""
    _check_values(cfg)
    if cfg.data is None:
        raise ConfigError("no data file configured")
    if cfg.engine == "external":
        template = cfg.solver or os.environ.get(SOLVER_ENV)
        if not template:
            raise ConfigError("external engine needs a solver template "
                              "(solver key, --solver, or $%s)" % SOLVER_ENV)
        if "{model}" not in template or "{solution}" not in template:
            raise ConfigError("solver template must contain {model} and {solution}")
        cfg.solver = template

    data = nnspec.load_dataset(cfg.data, cfg.label)
    data = nnspec.preprocess(data, standardize=cfg.standardize, one_hot=cfg.one_hot)
    if cfg.subset and cfg.subset < data.n:
        rng = np.random.default_rng(cfg.seed)
        idx = np.sort(rng.choice(data.n, size=cfg.subset, replace=False))
        data = nnspec.take(data, idx)
    split = nnspec.split_indices(cfg.split) if cfg.split else None
    bad = [i for i in split or () if not 0 <= i < data.n]
    if bad:
        raise ConfigError("%s: split index %d out of range for %d samples"
                          % (cfg.split, bad[0], data.n))

    if cfg.arch == "dense":
        hidden = _ints(cfg, "hidden")
        if not hidden:
            raise ConfigError("dense architecture needs hidden widths")
        arch = DenseArch(input_dim=data.inputs.shape[1],
                         hidden_widths=hidden,
                         output_dim=data.targets.shape[1])
    elif cfg.arch == "conv":
        if not cfg.input_shape or not cfg.conv:
            raise ConfigError("conv architecture needs input_shape and conv layers")
        shape, features = _ints(cfg, "input_shape"), data.inputs.shape[1]
        if len(shape) != 3 or min(shape) < 1 or math.prod(shape) != features:
            raise ConfigError("input_shape must be C,H,W, sizes of at least 1 whose "
                              "product is the %d features of a data row, not %r"
                              % (features, cfg.input_shape))
        arch = ConvArch(input_shape=shape,
                        conv_layers=parse_conv_layers(cfg.conv),
                        head_dim=data.targets.shape[1])
        data = Dataset(inputs=data.inputs.reshape((-1,) + shape),
                       targets=data.targets,
                       feature_mean=data.feature_mean,
                       feature_std=data.feature_std,
                       zero_variance=data.zero_variance)
    else:
        raise ConfigError("unknown architecture %r" % cfg.arch)

    hyper = Hyper(alpha=cfg.alpha, lam=cfg.lam, beta=cfg.beta, big_m=cfg.big_m,
                  mode=cfg.mode, loss=cfg.loss, bits=cfg.bits, w_max=cfg.w_max,
                  quantize_biases=cfg.quantize_biases, symmetry=cfg.symmetry,
                  pool_global_m=cfg.pool_global_m)

    fixed = None
    if hyper.mode == VERIFY:
        if not cfg.weights:
            raise ConfigError("verification mode needs a weights file")
        fixed = load_weights_npz(cfg.weights, arch)

    flat = data.inputs.reshape(data.inputs.shape[0], -1)
    in_lo = flat.min(axis=0).reshape(data.inputs.shape[1:])
    in_hi = flat.max(axis=0).reshape(data.inputs.shape[1:])
    if fixed is not None:
        btable = bounds_mod.propagate_bounds(arch, in_lo, in_hi, 0.0, 0.0,
                                             fixed_weights=fixed)
    else:
        box = param_box(hyper)
        btable = bounds_mod.propagate_bounds(arch, in_lo, in_hi, -box, box)

    if isinstance(arch, DenseArch):
        build = build_dense(arch, data, hyper, btable, weights=fixed)
    else:
        build = build_cnn(arch, data, hyper, btable, weights=fixed)
    build.model.freeze()

    return Prepared(cfg=cfg, arch=arch, data=data, hyper=hyper, btable=btable,
                    build=build, fixed_weights=fixed, eval_split=split)


# ---------------------------------------------------------------------------
# artifacts


def _model_path(cfg):
    return os.path.join(cfg.out, "model." + cfg.emit)


def _solution_path(cfg):
    return os.path.join(cfg.out, "solution.txt")


def write_model(prep):
    cfg = prep.cfg
    os.makedirs(cfg.out, exist_ok=True)
    path = _model_path(cfg)
    if cfg.emit == "lp":
        emit.write_lp(prep.build.model, path)
    else:
        emit.write_mps(prep.build.model, path)
    with open(os.path.join(cfg.out, "bounds.txt"), "w") as fh:
        fh.write(prep.btable.to_text())
    with open(os.path.join(cfg.out, "stats.txt"), "w") as fh:
        fh.write(emit.model_stats(prep.build.model).to_text())
    return path


def solve(prep):
    """Run the configured engine; returns an emit.SolutionFile and the
    search's oracle.SolveResult (None for an external solver)."""
    cfg = prep.cfg
    if cfg.engine == "external":
        return _solve_external(prep), None
    if cfg.engine == "oracle":
        res = oracle.enumerate_exact(prep.build, limit_bits=cfg.limit_bits,
                                     tol=cfg.tolerance, timeout=cfg.timeout)
        gap = 0.0
    else:
        started = time.monotonic()
        res = oracle.branch_and_bound(prep.build, budget=cfg.budget,
                                      limit_bits=cfg.limit_bits,
                                      tol=cfg.tolerance, timeout=cfg.timeout)
        if res.assignment is None:
            if cfg.timeout is not None and time.monotonic() - started > cfg.timeout:
                raise oracle.TimeoutExceededError(
                    "search reached its %gs timeout without an incumbent" % cfg.timeout)
            raise oracle.InfeasibleError(
                "search exhausted its budget without an incumbent")
        gap = 0.0 if res.proven else _gap(res.objective, res.bound)
    return emit.SolutionFile(assignment=res.assignment,
                             objective=res.objective, gap=gap), res


def _gap(objective, bound):
    if bound is None:
        return 1.0
    return abs(objective - bound) / max(abs(objective), 1e-12)


def _solve_external(prep):
    cfg = prep.cfg
    model_path = _model_path(cfg)
    sol_path = _solution_path(cfg)
    argv = [a.replace("{model}", model_path).replace("{solution}", sol_path)
            for a in shlex.split(cfg.solver)]
    try:
        proc = subprocess.run(argv, timeout=cfg.timeout)
    except FileNotFoundError as e:
        raise ConfigError("solver executable not found: %s" % e)
    except subprocess.TimeoutExpired:
        raise oracle.TimeoutExceededError("external solver hit the timeout")
    if proc.returncode != 0:
        raise SolverFailure("external solver exited with %d" % proc.returncode)
    return emit.read_solution(prep.build.model, sol_path, tol=cfg.tolerance)


class SolverFailure(Exception):
    pass


def audit_text(report):
    lines = ["ok" if report.ok else "FAILED",
             "objective %r" % report.objective,
             "max_violation %r" % report.max_violation]
    for v in report.violations:
        lines.append("violation %s %r" % (v.label, v.amount))
    for name, val in report.integrality_violations:
        lines.append("integrality %s %r" % (name, val))
    return "\n".join(lines) + "\n"


def evaluate(prep, solution, report):
    """The net and metrics of a solution that ``report``, its audit, passed."""
    net = recon.reconstruct(prep.build, solution.assignment, prep.cfg.tolerance,
                            report=report)
    gap_pct = None if solution.gap is None else 100.0 * solution.gap
    return net, recon.metrics(net, prep.data, split=prep.eval_split,
                              reported_gap=gap_pct, hyper=prep.hyper)


def report_text(prep, rep):
    if isinstance(prep.arch, DenseArch):
        return rep.render_dense_table(os.path.basename(prep.cfg.data)) + "\n"
    return rep.render_cnn_block() + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(cfg):
    prep = prepare(cfg)
    path = write_model(prep)
    print("wrote %s" % path)
    return EXIT_OK


def cmd_stats(cfg):
    prep = prepare(cfg)
    sys.stdout.write(emit.model_stats(prep.build.model).to_text())
    return EXIT_OK


def cmd_solve(cfg):
    prep = prepare(cfg)
    write_model(prep)
    solution, _ = solve(prep)
    emit.write_solution(prep.build.model, solution.assignment, _solution_path(cfg),
                        objective=solution.objective, gap=solution.gap)
    print("objective %r" % solution.objective)
    return EXIT_OK


def cmd_verify(cfg, solution_path):
    prep = prepare(cfg)
    solution = emit.read_solution(prep.build.model, solution_path,
                                  tol=cfg.tolerance)
    report = recon.audit(prep.build, solution.assignment, cfg.tolerance)
    os.makedirs(cfg.out, exist_ok=True)
    text = audit_text(report)
    with open(os.path.join(cfg.out, "audit.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if report.ok else EXIT_AUDIT


def cmd_eval(cfg, solution_path):
    prep = prepare(cfg)
    solution = emit.read_solution(prep.build.model, solution_path,
                                  tol=cfg.tolerance)
    report = recon.audit(prep.build, solution.assignment, cfg.tolerance)
    _, rep = evaluate(prep, solution, report)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "metrics.txt"), "w") as fh:
        fh.write(rep.to_kv_lines())
    sys.stdout.write(rep.to_kv_lines())
    return EXIT_OK


def cmd_report(cfg, solution_path):
    prep = prepare(cfg)
    solution = emit.read_solution(prep.build.model, solution_path,
                                  tol=cfg.tolerance)
    report = recon.audit(prep.build, solution.assignment, cfg.tolerance)
    _, rep = evaluate(prep, solution, report)
    text = report_text(prep, rep)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "report.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_run(cfg):
    t0 = time.monotonic()
    log = []
    prep = prepare(cfg)
    write_model(prep)
    log.append("# time build %.3f" % (time.monotonic() - t0))
    log += ["# count max_coef %s %r" % item
            for item in prep.build.model.max_abs_coef_by_label().items()]

    t1 = time.monotonic()
    solution, search = solve(prep)
    emit.write_solution(prep.build.model, solution.assignment, _solution_path(cfg),
                        objective=solution.objective, gap=solution.gap)
    log.append("# time solve %.3f" % (time.monotonic() - t1))
    if search is not None:
        log += ["# count nodes %d" % search.nodes,
                "# count candidates %d" % search.candidates,
                "# count bound %r" % search.bound,
                "# count proven %d" % search.proven]

    # the search has already run the model's audit of its answer
    report = recon.audit(prep.build, solution.assignment, cfg.tolerance,
                         report=None if search is None else search.report)
    with open(os.path.join(cfg.out, "audit.txt"), "w") as fh:
        fh.write(audit_text(report))
    if not report.ok:
        labels = sorted({v.label for v in report.violations})
        print("audit failed: %s" % ", ".join(labels or ["integrality"]),
              file=sys.stderr)
        return EXIT_AUDIT

    _, rep = evaluate(prep, solution, report)
    with open(os.path.join(cfg.out, "metrics.txt"), "w") as fh:
        fh.write(rep.to_kv_lines())
    with open(os.path.join(cfg.out, "report.txt"), "w") as fh:
        fh.write(report_text(prep, rep))
    log.append("# time total %.3f" % (time.monotonic() - t0))
    with open(os.path.join(cfg.out, "run.log"), "w") as fh:
        fh.write("\n".join(log) + "\n")
    print("objective %r accuracy %.1f" % (solution.objective, rep.accuracy))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_CONFIG on a usage error, not argparse's 2 (EXIT_AUDIT)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, "%s: error: %s\n" % (self.prog, message))


# subcommand -> function; a function of two arguments also takes --solution
_COMMANDS = {"build": cmd_build, "stats": cmd_stats, "solve": cmd_solve,
             "run": cmd_run, "verify": cmd_verify, "eval": cmd_eval,
             "report": cmd_report}


def build_parser():
    ap = _Parser(
        prog="mipnn",
        description="Compile network training and verification problems to "
                    "mixed-integer programs, solve, audit, and score them.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", nargs="+", required=True)
        for key, f in _FLAGGED:
            p.add_argument("--" + key, dest=f.name, type=f.type,
                           choices=f.metadata["choices"])
        p.add_argument("--jobs", type=int)
        if command.__code__.co_argcount == 2:
            p.add_argument("--solution", required=True)
    return ap


def _run_one(args):
    ns, path = args
    try:
        cfg = parse_config(path)
        for _, f in _FLAGGED:
            if getattr(ns, f.name) is not None:
                setattr(cfg, f.name, getattr(ns, f.name))
        # looked up by name, so that a wrapper set on this module runs
        command = globals()[_COMMANDS[ns.command].__name__]
        return command(cfg, ns.solution) if "solution" in ns else command(cfg)
    except (ConfigError, nnspec.SpecError, nnspec.ParseError,
            emit.EmitError, BuildError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except oracle.InfeasibleError as e:
        print("infeasible: %s" % e, file=sys.stderr)
        return EXIT_INFEASIBLE
    except (oracle.OracleError,) as e:
        print("solver error: %s" % e, file=sys.stderr)
        return EXIT_SOLVER
    except SolverFailure as e:
        print("solver failure: %s" % e, file=sys.stderr)
        return EXIT_SOLVER
    except recon.ReconError as e:
        print("audit error: %s" % e, file=sys.stderr)
        return EXIT_AUDIT


def main(argv=None):
    ns = build_parser().parse_args(argv)
    tasks = [(ns, path) for path in ns.config]
    jobs = ns.jobs or 1
    if len(tasks) == 1 or jobs <= 1:
        status = EXIT_OK
        for task in tasks:
            status = max(status, _run_one(task))
        return status
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return max(pool.map(_run_one, tasks))


if __name__ == "__main__":
    sys.exit(main())
