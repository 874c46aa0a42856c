"""Desk-scale exact solver over a build's structural binaries.

Both engines branch only on the structural binaries (pruning switches and, in
quantized mode, weight digits); once those are fixed, forward propagation
determines every continuous value, the ReLU indicators follow the sign of the
pre-activations, and the pool selectors pick the first maximal cell.  The
winning candidate is always re-audited against the full model.

Constraints injected into the model after the build (and bound fixings on the
structural binaries themselves) are honored: fixings restrict the enumeration,
injected constraints are evaluated on every leaf that reaches the scalar
decision (see ``_Search``).
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .ir import Assignment, AuditReport
from .nnspec import TRAIN_BILINEAR
from .recon import QuantSpec, regularization

# Leaves per decision block: the search decides the trailing weight digits
# of each subtree, at most this many leaves, as one block (``_Search``).
BLOCK_LEAVES = 1024
# Leaves per ``complete_batch`` pass: the sibling blocks under one prefix are
# scored together, at most this many leaves.  Memory grows with it: the
# traced peak of the search on the XOR criterion-6 instance is about 0.2 MB
# at 1024 leaves per pass, 0.4 MB at 2048 and 0.7 MB at 4096.
PASS_LEAVES = 4096
# Relative margin, of max(1, |x|), by which a screened violation or objective
# x must clear the tolerance or the incumbent before the leaf may skip the
# scalar check.  The screen (``complete_batch``) sums each layer and each
# check in another order than ``complete`` does, and adds each layer's
# regularization per state before the loss, so its numbers may differ by a
# few ulps of the terms summed: about 1e-16 relative each, far below 1e-9
# for nets of a few dozen terms per sum.  A leaf within the margin of a cut
# is decided by ``complete``, so the screen never changes a decision.
SCREEN_MARGIN = 1e-9


class OracleError(Exception):
    pass


class TimeoutExceededError(OracleError):
    pass


class TooManyBinariesError(OracleError):
    pass


class InfeasibleError(OracleError):
    pass


@dataclass
class SolveResult:
    assignment: Assignment
    objective: float
    proven: bool = True
    bound: float = None
    nodes: int = 0           # nodes entered above the blocks + leaves scored
    candidates: int = 0      # leaves that satisfy the built constraints
    report: AuditReport = None   # the model's audit of ``assignment``


def _structural_domains(build):
    """(name, [values]) per structural binary, honoring bound fixings."""
    cols = build.columns["bits"]
    lo, hi = (np.asarray(v)[cols].tolist() for v in (build.model.lo, build.model.hi))
    return [(name, [1.0] if low > 0.5 else [0.0] if high < 0.5 else [0.0, 1.0])
            for name, low, high in zip(build.structural, lo, hi)]


def _has_extras(build):
    """Whether rows were injected into the model after the build."""
    return len(build.model.constraints) > build.built_constraints


def _check_extras(build, bits, tol):
    """The worst violation of the post-build injected rows by the assembled
    candidate."""
    asg, _, _ = build.assemble(bits, tol)
    model = build.model
    amount = model.row_violations(asg.x, build.built_constraints)
    return float(np.max(amount, initial=0.0, where=amount > 0.0))


def iter_candidates(build, tol=1e-6):
    """All feasible structural candidates as (bits, objective), lexicographic."""
    domains = _structural_domains(build)
    extras = _has_extras(build)

    def rec(idx, bits):
        if idx == len(domains):
            obj, viol, _ = build.complete(bits, tol)
            if viol <= tol and (not extras
                                or _check_extras(build, bits, tol) <= tol):
                yield dict(bits), obj
            return
        name, dom = domains[idx]
        for val in dom:
            bits[name] = val
            yield from rec(idx + 1, bits)
        del bits[name]

    yield from rec(0, {})


def enumerate_exact(build, limit_bits=24, tol=1e-6, timeout=None):
    """Visit every structural assignment; return the proven global optimum.

    Ties break toward the lexicographically smallest binary vector, which the
    enumeration order delivers for free.  A timeout aborts with an error:
    a partial enumeration proves nothing.
    """
    _check_solvable(build, limit_bits)
    search = _Search(build, tol, timeout)
    search.run()
    if search.exhausted:
        raise TimeoutExceededError("enumeration exceeded %gs" % timeout)
    if search.best_bits is None:
        raise InfeasibleError("no feasible structural assignment")
    asg, report = _audited(build, search.best_bits, tol, "winning candidate")
    return SolveResult(assignment=asg, objective=search.best_obj,
                       bound=search.best_obj, candidates=search.candidates,
                       nodes=search.nodes, report=report)


def branch_and_bound(build, budget=10 ** 7, limit_bits=24, tol=1e-6, timeout=None):
    """Depth-first search with the same order and tie-breaking as enumeration.

    A node's lower bound collects the objective contributions that its fixed
    bits already determine: the structural penalty of fixed pruning switches
    and the regularization of weights whose digits are all fixed.  The bound
    never decreases along a branch, so pruning at bound >= incumbent is safe.
    """
    _check_solvable(build, limit_bits)
    search = _Search(build, tol, timeout, budget, build_triggers(build, tol))
    search.run()
    proven = not search.exhausted
    if search.best_bits is None:
        if proven:
            raise InfeasibleError("no feasible structural assignment")
        return SolveResult(assignment=None, objective=None, proven=False,
                           bound=search.open_bound or 0.0, nodes=search.nodes,
                           candidates=search.candidates)
    asg, report = _audited(build, search.best_bits, tol, "incumbent")
    bound = search.best_obj if proven else min(
        search.best_obj, search.open_bound or 0.0)
    return SolveResult(assignment=asg, objective=search.best_obj,
                       proven=proven, bound=bound, nodes=search.nodes,
                       candidates=search.candidates, report=report)


def _check_solvable(build, limit_bits):
    if build.hyper.mode == TRAIN_BILINEAR:
        raise OracleError("bilinear mode admits no forward-determined completion")
    nbits = len(build.structural)
    if nbits > limit_bits:
        raise TooManyBinariesError(
            "%d structural binaries exceed the limit of %d" % (nbits, limit_bits))


def _audited(build, bits, tol, what):
    """The assembled candidate of ``bits`` and its full audit, which it must pass."""
    asg, _, _ = build.assemble(bits, tol)
    report = build.model.evaluate_assignment(asg, tol)
    if not report.ok:
        raise OracleError("%s failed the full audit (worst %g)"
                          % (what, report.max_violation))
    return asg, report


def _block_start(build, domains, leaves_max):
    """Index of the first structural bit of the longest trailing run of
    weight digits (the bits after the switches) whose leaves fit in
    ``leaves_max``.  Builds without weight digits (verification mode) get
    none: the index is the bit count."""
    start, leaves = len(domains), 1
    while (start > len(build.gammas)
           and leaves * len(domains[start - 1][1]) <= leaves_max):
        start -= 1
        leaves *= len(domains[start][1])
    return start


def _margin(x):
    return SCREEN_MARGIN * np.maximum(1.0, np.abs(x))


class _Search:
    """The depth-first search both engines share.

    It branches bit by bit in lexicographic order over the leading structural
    bits down to the block start, and decides the leaves below it as one
    block.  The leaves are scored in ``complete_batch`` passes, each for
    every sibling block under one prefix: the blocks that differ only in the
    weight digits between the pass start and the block start.  The pass is
    scored when the first of them is reached and serves each in DFS order.
    The batched numbers only screen: a leaf is skipped when they show that
    it cannot become the incumbent under the strict-``<`` rule, and every
    other leaf, in lexicographic order, is decided by the scalar
    ``complete`` and the injected-constraint check.

    Enumeration passes no triggers.  Branch and bound passes the callbacks of
    ``build_triggers``: a fixed bit may then cut its subtree as infeasible,
    and a subtree whose bound reaches the incumbent is pruned.  Inside a
    block both tests run on each leaf that reaches the scalar decision; as
    the bound never decreases along a branch and the incumbent never rises,
    that prunes exactly what testing every node on the path would.

    ``nodes`` counts the nodes entered above the blocks (block roots and
    scalar leaves included) plus the leaves of every block decided, whether
    or not its pass scored other blocks too;
    ``candidates`` counts the leaves that satisfy the built constraints.  A
    budget or deadline that runs out leaves ``exhausted`` set and the lowest
    bound of the work left undone in ``open_bound``.
    """

    def __init__(self, build, tol, timeout=None, budget=None, triggers=None):
        self.build = build
        self.tol = tol
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.budget = budget
        self.triggers = triggers
        self.domains = _structural_domains(build)
        self.extras = _has_extras(build)
        self.start = _block_start(build, self.domains, BLOCK_LEAVES)
        self.pass_start = _block_start(build, self.domains, PASS_LEAVES)
        self.siblings = self.domains[self.pass_start:self.start]
        tail = self.domains[self.start:]
        self.block_names = [name for name, _ in tail]
        # Python floats: the decided bits go on into complete and assemble
        self.block_leaves = list(itertools.product(*(dom for _, dom in tail)))
        # the leaves of a pass, sibling block after sibling block, one byte
        # per bit and stored column by column, as the screen reads them
        heads = np.array(list(itertools.product(*(dom for _, dom in self.siblings))))
        block = np.array(self.block_leaves)
        self.values = np.empty((len(self.domains), len(heads) * len(block)), bool).T
        self.values[:, self.pass_start:self.start] = np.repeat(heads, len(block), axis=0)
        self.values[:, self.start:] = np.tile(block, (len(heads), 1))
        self.screen = None       # the current pass's masks (see _block)
        self.bits = {}
        self.nodes = 0
        self.candidates = 0
        self.best_obj = None
        self.best_bits = None
        self.exhausted = False
        self.open_bound = None

    def run(self):
        self._node(0, 0.0)

    def _stop(self, cost, bound):
        """True, and the search marked exhausted, when ``cost`` more nodes
        would overrun the budget or the deadline has passed."""
        if not self.exhausted and (
                (self.budget is not None and self.nodes + cost > self.budget)
                or (self.deadline is not None
                    and time.monotonic() > self.deadline)):
            self.exhausted = True
        # once exhausted, every node the unwinding search offers is left
        # undone: the lowest of their bounds is a bound on the work left
        if self.exhausted and (self.open_bound is None or bound < self.open_bound):
            self.open_bound = bound
        return self.exhausted

    def _fire(self, name, bound):
        """The bound after fixing ``name``, or None when a trigger cuts it."""
        extra = 0.0
        feasible = True
        for fn in self.triggers.get(name, ()):
            contrib, ok = fn(self.bits)
            extra += contrib
            feasible = feasible and ok
        return bound + extra if feasible else None

    def _pruned(self, bound):
        return (self.triggers is not None and self.best_obj is not None
                and bound >= self.best_obj)

    def _node(self, idx, bound):
        if self._stop(1, bound):
            return
        self.nodes += 1
        if self._pruned(bound):
            return
        if idx == self.pass_start:
            self.screen = None       # a new prefix: its first block scores a pass
        if idx == len(self.domains):
            self.candidates += self._decide()
            return
        if idx == self.start:
            self._block(bound)
            return
        name, dom = self.domains[idx]
        for val in dom:
            self.bits[name] = val
            child = bound if self.triggers is None else self._fire(name, bound)
            if child is not None:
                self._node(idx + 1, child)
        del self.bits[name]

    def _decide(self):
        """Scalar verdict on the leaf in ``bits``: whether it satisfies the
        built constraints; it becomes the incumbent if it also satisfies the
        injected ones and beats the incumbent."""
        obj, viol, _ = self.build.complete(self.bits, self.tol)
        if viol > self.tol:
            return False
        if ((self.best_obj is None or obj < self.best_obj)
                and (not self.extras or _check_extras(
                    self.build, self.bits, self.tol) <= self.tol)):
            self.best_obj = obj
            self.best_bits = dict(self.bits)
        return True

    def _block(self, bound):
        leaves = self.block_leaves
        if self._stop(len(leaves), bound):
            return
        self.nodes += len(leaves)
        if self.screen is None:
            self.values[:, :self.pass_start] = [
                self.bits[name] for name, _ in self.domains[:self.pass_start]]
            obj, viol = self.build.complete_batch(self.values)
            self.screen = (viol <= self.tol + _margin(viol),
                           viol <= self.tol - _margin(viol), obj - _margin(obj))
        # this block's slice of the pass: its sibling digits in mixed radix
        k = 0
        for name, dom in self.siblings:
            k = k * len(dom) + dom.index(self.bits[name])
        open_, sure, low = (x[k * len(leaves):(k + 1) * len(leaves)]
                            for x in self.screen)
        self.candidates += int(sure.sum())
        for i in np.flatnonzero(open_ & ~sure):
            self._set_leaf(leaves[i])
            self.candidates += self.build.complete(self.bits, self.tol)[1] <= self.tol
        pos = 0
        while True:
            cut = np.inf if self.best_obj is None else self.best_obj
            hits = np.flatnonzero(open_[pos:] & (low[pos:] < cut))
            if not hits.size:
                break
            i = pos + int(hits[0])
            pos = i + 1
            self._set_leaf(leaves[i])
            leaf_bound = bound
            if self.triggers is not None:
                for name in self.block_names:
                    leaf_bound = self._fire(name, leaf_bound)
                    if leaf_bound is None:
                        break
                if leaf_bound is None or self._pruned(leaf_bound):
                    continue
            self._decide()
        for name in self.block_names:
            self.bits.pop(name, None)

    def _set_leaf(self, leaf):
        for name, val in zip(self.block_names, leaf):
            self.bits[name] = val


def build_triggers(build, tol=1e-6):
    """Map structural-bit name -> bound/feasibility callbacks fired when fixed.

    A pruned layer's weight may be off zero by ``tol``, as in ``complete``
    and the audit."""
    hyper = build.hyper
    triggers = {}

    def add(name, fn):
        triggers.setdefault(name, []).append(fn)

    gammas = build.gammas
    for g in gammas:
        add(g, lambda bits, g=g: (hyper.beta * bits[g], True))
    # root/ordering checks once the relevant switches are known
    if build.layer_chain:
        add(gammas[0], lambda bits: (0.0, bits[gammas[0]] >= 0.5))
        for h in range(build.L - 1):
            add(gammas[h + 1],
                lambda bits, a=gammas[h], b=gammas[h + 1]:
                    (0.0, bits[b] <= bits[a] + 0.5))

    if build._digit_names:
        quant = QuantSpec(hyper.bits, hyper.w_max)
        al, fr = regularization(hyper)

        def group(names, is_bias, gate):
            def fn(bits):
                w = float(quant.decode([bits[d] for d in names]))
                contrib = 0.0 if is_bias else al * abs(w) + fr * w * w
                ok = True
                if gate is not None and gate in bits and bits[gate] < 0.5:
                    ok = abs(w) <= tol
                return contrib, ok

            add(names[-1], fn)

        for t in build.tensors:
            for row in range(t.shape[0]):
                gate = t.gates[row] if t.gates else None
                for idx in np.ndindex(t.shape[1:]):
                    group(build._digit_names[(t.l, row) + idx], False, gate)
                if t.bias_key(row) in build._digit_names:
                    group(build._digit_names[t.bias_key(row)], True, gate)
    return triggers
