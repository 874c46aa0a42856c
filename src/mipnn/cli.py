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
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from . import emit, nnspec, oracle, recon
from .cnn import build_cnn
from .dense import BuildError, build_dense, param_box
from .nnspec import (LOSS_ABS, LOSS_SQUARED, TRAIN_BILINEAR, TRAIN_QUANTIZED,
                     VERIFY, ConvArch, ConvLayer, DenseArch, Dataset, Hyper)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

SOLVER_ENV = "MIPNN_SOLVER"


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    data: str = None
    label: str = "label"
    split: str = None             # optional file of evaluation sample indices
    out: str = "out"
    arch: str = "dense"           # dense | conv
    hidden: str = ""              # comma list of dense hidden widths
    input_shape: str = ""         # C,H,W for conv
    conv: str = ""                # conv layer tokens, comma separated
    weights: str = None           # npz of fixed weights (verification mode)
    standardize: bool = False
    one_hot: bool = False
    subset: int = 0               # random sample subset size (0 = all)
    mode: str = VERIFY
    loss: str = LOSS_SQUARED
    alpha: float = 0.1
    lam: float = 0.9
    beta: float = 0.01
    big_m: float = 10.0
    bits: int = 2
    w_max: float = 1.0
    quantize_biases: bool = True
    symmetry: bool = True
    pool_global_m: bool = False
    engine: str = "bnb"           # oracle | bnb | external
    solver: str = None            # external argv template
    emit: str = "lp"              # lp | mps
    tolerance: float = 1e-6
    timeout: float = None
    limit_bits: int = 24
    budget: int = 10 ** 7
    seed: int = 0


_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}

# config key -> RunConfig field for keys whose spelling differs
_KEY_ALIASES = {"lambda": "lam", "bigM": "big_m", "wmax": "w_max"}


def parse_config(path):
    """Flat ``key = value`` lines into a RunConfig."""
    cfg = RunConfig()
    valid = {f.name: f for f in fields(RunConfig)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
            key, val = (s.strip() for s in line.split("=", 1))
            key = _KEY_ALIASES.get(key, key)
            if key not in valid:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                setattr(cfg, key, _coerce(valid[key], val))
            except (ValueError, KeyError):
                raise ConfigError("%s:%d: bad value %r for %s" % (path, lineno, val, key))
    return cfg


def _coerce(fdef, val):
    t = fdef.type
    if t == "bool" or isinstance(fdef.default, bool):
        return _BOOL[val.lower()]
    if isinstance(fdef.default, int) and not isinstance(fdef.default, bool):
        return int(val)
    if isinstance(fdef.default, float) or fdef.name in ("timeout",):
        return float(val)
    return val


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
        layers.append(ConvLayer(filters=int(m.group("f")),
                                kernel=(int(m.group("kh")), int(m.group("kw"))),
                                stride=int(m.group("s") or 1),
                                pool=pool))
    return tuple(layers)


def load_weights_npz(path, arch):
    """Fixed weights from an npz: dense ``W0,b0,W1,b1,...``; conv ``K0,b0,...``
    per conv layer plus head ``Wh,bh``."""
    z = np.load(path)
    try:
        if isinstance(arch, DenseArch):
            return [(z["W%d" % l], z["b%d" % l])
                    for l in range(arch.num_hidden + 1)]
        pairs = [(z["K%d" % l], z["b%d" % l])
                 for l in range(len(arch.conv_layers))]
        pairs.append((z["Wh"], z["bh"]))
        return pairs
    except KeyError as e:
        raise ConfigError("%s: missing array %s" % (path, e))


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
    """Load data, derive the architecture and bounds, and build the model."""
    if cfg.data is None:
        raise ConfigError("no data file configured")
    if cfg.emit not in ("lp", "mps"):
        raise ConfigError("emission format must be lp or mps")
    if cfg.engine not in ("oracle", "bnb", "external"):
        raise ConfigError("unknown engine %r" % cfg.engine)
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

    if cfg.arch == "dense":
        hidden = [int(s) for s in cfg.hidden.split(",") if s.strip()]
        if not hidden:
            raise ConfigError("dense architecture needs hidden widths")
        arch = DenseArch(input_dim=data.inputs.shape[1],
                         hidden_widths=tuple(hidden),
                         output_dim=data.targets.shape[1])
    elif cfg.arch == "conv":
        if not cfg.input_shape or not cfg.conv:
            raise ConfigError("conv architecture needs input_shape and conv layers")
        shape = tuple(int(s) for s in cfg.input_shape.split(","))
        if len(shape) != 3:
            raise ConfigError("input_shape must be C,H,W")
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

    split = nnspec.split_indices(cfg.split) if cfg.split else None
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
        res = oracle.branch_and_bound(prep.build, budget=cfg.budget,
                                      limit_bits=cfg.limit_bits,
                                      tol=cfg.tolerance, timeout=cfg.timeout)
        if res.assignment is None:
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


def _add_common(p):
    p.add_argument("--config", nargs="+", required=True)
    p.add_argument("--mode", choices=[VERIFY, TRAIN_BILINEAR, TRAIN_QUANTIZED])
    p.add_argument("--engine", choices=["oracle", "bnb", "external"])
    p.add_argument("--emit", choices=["lp", "mps"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--bigM", dest="big_m", type=float)
    p.add_argument("--bits", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--timeout", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--solver")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mipnn",
        description="Compile network training and verification problems to "
                    "mixed-integer programs, solve, audit, and score them.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("build", "stats", "solve", "run"):
        _add_common(sub.add_parser(name))
    for name in ("verify", "eval", "report"):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("--solution", required=True)
    return ap


_OVERRIDES = ("mode", "engine", "emit", "alpha", "lam", "beta", "big_m", "bits",
              "tolerance", "timeout", "seed", "out", "solver")


def _apply_overrides(cfg, ns):
    for key in _OVERRIDES:
        val = getattr(ns, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def _dispatch(ns, cfg):
    if ns.command == "build":
        return cmd_build(cfg)
    if ns.command == "stats":
        return cmd_stats(cfg)
    if ns.command == "solve":
        return cmd_solve(cfg)
    if ns.command == "run":
        return cmd_run(cfg)
    if ns.command == "verify":
        return cmd_verify(cfg, ns.solution)
    if ns.command == "eval":
        return cmd_eval(cfg, ns.solution)
    return cmd_report(cfg, ns.solution)


def _run_one(args):
    ns, path = args
    try:
        cfg = _apply_overrides(parse_config(path), ns)
        return _dispatch(ns, cfg)
    except (ConfigError, nnspec.SpecError, nnspec.ParseError,
            emit.EmitError, BuildError) as e:
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
