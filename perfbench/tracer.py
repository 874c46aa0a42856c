"""Spans around the calls into mipnn's modules, recorded from outside.

``Tracer.install`` replaces each target callable, at the name through which
mipnn looks it up at call time, with a wrapper that records a span (name,
start, end, parent span, run id) and restores every original in ``finally``.
Hot leaf calls, such as ``DenseBuild.complete`` which the exact search calls
once per leaf, are not recorded one span each: their count, summed time and
number of feasible results are added to the parent span.  Spans stay in
memory until ``dump`` writes them out.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from mipnn import cli, emit, nnspec, oracle, recon
from mipnn.cnn import ConvBuild
from mipnn.dense import DenseBuild
from mipnn.ir import ModelIR

SPAN, LEAF = "span", "leaf"


def _solve_note(args, result):
    # enumerate_exact reports nodes = 2 ** bits whatever it visited; the
    # leaves it really evaluated are counted from the complete() calls
    return {"nodes": result.nodes, "structural_bits": len(args[0].structural)}


# (owner, attribute, span name, kind), where kind is SPAN, LEAF or a function
# of (arguments, result) whose dict is kept on the span as its note.  Owners
# are the objects mipnn reads the callables from while it runs: ``cli``
# resolves its own stage functions and the builders as module globals and
# reaches the other modules through their module attributes; methods are
# looked up on the class.
TARGETS = (
    (cli, "cmd_run", "cli.cmd_run", SPAN),
    (cli, "prepare", "cli.prepare", SPAN),
    (cli, "write_model", "cli.write_model", SPAN),
    (cli, "solve", "cli.solve", SPAN),
    (cli, "evaluate", "cli.evaluate", SPAN),
    (cli, "build_dense", "dense.build", SPAN),
    (cli, "build_cnn", "cnn.build", SPAN),
    (nnspec, "load_dataset", "nnspec.load_dataset", SPAN),
    (nnspec, "preprocess", "nnspec.preprocess", SPAN),
    (cli.bounds_mod, "propagate_bounds", "bounds.propagate", SPAN),
    (emit, "write_lp", "emit.write_lp", SPAN),
    (emit, "write_mps", "emit.write_mps", SPAN),
    (emit, "model_stats", "emit.model_stats", SPAN),
    (emit, "read_lp", "emit.read_lp", SPAN),
    (emit, "read_mps", "emit.read_mps", SPAN),
    (emit, "read_solution", "emit.read_solution", SPAN),
    (emit, "write_solution", "emit.write_solution", SPAN),
    (oracle, "enumerate_exact", "oracle.solve", _solve_note),
    (oracle, "branch_and_bound", "oracle.solve", _solve_note),
    (recon, "audit", "recon.audit", SPAN),
    (recon, "reconstruct", "recon.reconstruct", SPAN),
    (recon, "metrics", "recon.metrics", SPAN),
    (ModelIR, "freeze", "ir.freeze", SPAN),
    (ModelIR, "evaluate_assignment", "ir.evaluate_assignment", SPAN),
    (DenseBuild, "complete", "dense.complete", LEAF),
    (DenseBuild, "assemble", "dense.assemble", SPAN),
    (ConvBuild, "complete", "cnn.complete", LEAF),
    (ConvBuild, "assemble", "cnn.assemble", SPAN),
)


@dataclass
class Span:
    id: int
    run: int
    name: str
    parent: int            # id of the enclosing span, -1 at the top
    start: float
    end: float = None
    # leaf name -> [calls, seconds, feasible results]
    leaves: dict = field(default_factory=dict)
    note: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    def _span(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self.run, name,
                        self._stack[-1].id if self._stack else -1,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        # complete(bits, tol) returns (objective, violation, trace)
        def wrapper(build, bits, tol=1e-6):
            t0 = time.perf_counter()
            result = fn(build, bits, tol)
            dt = time.perf_counter() - t0
            acc = self._stack[-1].leaves.setdefault(name, [0, 0.0, 0])
            acc[0] += 1
            acc[1] += dt
            acc[2] += result[1] <= tol
            return result
        return wrapper

    @contextmanager
    def install(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if kind == LEAF:
                    wrapper = self._leaf(name, original)
                else:
                    wrapper = self._span(name, original,
                                         None if kind == SPAN else kind)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _children(spans, span):
    return [s for s in spans if s.parent == span.id]


def _self_seconds(spans, span):
    """The span's time not covered by its child spans or its leaf calls."""
    return (span.seconds - sum(c.seconds for c in _children(spans, span))
            - sum(acc[1] for acc in span.leaves.values()))


def _descendants(spans, root):
    out, frontier = [], [root.id]
    while frontier:
        ids = set(frontier)
        kids = [s for s in spans if s.parent in ids]
        out += kids
        frontier = [s.id for s in kids]
    return out


def layer_metrics(spans, stats, model_bytes):
    """Per-layer metrics of one traced run: the spans of one ``cmd_run`` and
    of the reload that followed it, the counts from the run's ``stats.txt``
    and the size of its model file."""
    run = next(s for s in spans if s.name == "cli.cmd_run")
    inside = _descendants(spans, run)

    def secs(name, among=inside):
        return sum(s.seconds for s in among if s.name == name)

    def calls(name):
        return sum(1 for s in inside if s.name == name)

    rows = stats["constraints"]
    m = {
        "cli.prepare_s": secs("cli.prepare"),
        "cli.write_model_s": secs("cli.write_model"),
        "cli.solve_s": secs("cli.solve"),
        "cli.evaluate_s": secs("cli.evaluate"),
        "nnspec.load_dataset_s": secs("nnspec.load_dataset"),
        "nnspec.preprocess_s": secs("nnspec.preprocess"),
        "bounds.propagate_s": secs("bounds.propagate"),
        "ir.freeze_s": secs("ir.freeze"),
        "ir.vars": stats["variables"],
        "ir.rows": rows,
        "ir.binaries": stats["binary"],
        "emit.write_lp_s": secs("emit.write_lp"),
        "emit.write_mps_s": secs("emit.write_mps"),
        "emit.model_stats_s": secs("emit.model_stats"),
        "emit.read_lp_s": secs("emit.read_lp", spans),
        "emit.read_mps_s": secs("emit.read_mps", spans),
        "emit.read_solution_s": secs("emit.read_solution"),
        "emit.write_solution_s": secs("emit.write_solution"),
        "ir.evaluate_assignment_s": secs("ir.evaluate_assignment"),
        "ir.evaluate_assignment.calls": calls("ir.evaluate_assignment"),
        "recon.audit_s": secs("recon.audit"),
        "recon.audit.calls": calls("recon.audit"),
        "recon.reconstruct_s": secs("recon.reconstruct"),
        "recon.metrics_s": secs("recon.metrics"),
        "dense.assemble_s": secs("dense.assemble"),
        "cnn.assemble_s": secs("cnn.assemble"),
        "cnn.complete_s": sum(s.leaves.get("cnn.complete", (0, 0.0))[1]
                              for s in inside),
    }
    for family in ("dense", "cnn"):
        build_s = secs(family + ".build")
        m[family + ".build_s"] = build_s
        m[family + ".us_per_row"] = 1e6 * build_s / rows if build_s else 0.0
    for label, count in stats["rows_by_label"].items():
        m["ir.rows." + label] = count
    m["emit.mb_per_s"] = (model_bytes / 1e6
                          / (m["emit.write_lp_s"] + m["emit.write_mps_s"]))
    m["ir.audit_rows_per_s"] = (rows * m["ir.evaluate_assignment.calls"]
                                / m["ir.evaluate_assignment_s"])

    # leaves are the complete() calls during the solve, the winner's second
    # evaluation inside assemble() included
    leaves = feasible = nodes = bits = 0
    complete_s = solve_s = search_self_s = 0.0
    for s in (s for s in inside if s.name == "oracle.solve"):
        for d in [s] + _descendants(spans, s):
            for n, t, ok in d.leaves.values():
                leaves, complete_s, feasible = (leaves + n, complete_s + t,
                                                feasible + ok)
        solve_s += s.seconds
        search_self_s += _self_seconds(spans, s)
        nodes += s.note["nodes"]
        bits = s.note["structural_bits"]
    m.update({
        "oracle.solve_s": solve_s,
        "oracle.structural_bits": bits,
        "oracle.nodes": nodes,
        "oracle.leaves": leaves,
        "oracle.feasible_ratio": feasible / leaves if leaves else 0.0,
        "oracle.leaves_per_s": leaves / solve_s if solve_s else 0.0,
        "oracle.complete_s": complete_s,
        "oracle.search_self_s": search_self_s,
        "oracle.prune_ratio": (1.0 - nodes / (2 ** (bits + 1) - 1)
                               if nodes else 0.0),
        "trace.coverage": (sum(c.seconds for c in _children(spans, run))
                           / run.seconds),
    })
    return m
