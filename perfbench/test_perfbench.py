"""Self-tests of the benchmark code at reduced instance sizes.

    python3 -m pytest -q perfbench
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {"dense-external": 4, "conv-verify": 2}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    res = run.benchmark(workload, seed=1003, seconds=0, trace=trace,
                        n=SMALL[workload])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_trace_counts_what_each_engine_calls(tmp_path, monkeypatch):
    workloads.generate("conv-verify", 5, str(tmp_path), n=2)
    monkeypatch.chdir(tmp_path)
    res = worker.measure("conv-verify", seconds=0, trace=1, pins={})
    assert not res["failures"]
    layer = res["layers"][0]
    assert layer["ir.evaluate_assignment.calls"] == 3
    assert layer["recon.audit.calls"] == 2
    assert layer["oracle.structural_bits"] == 4
    assert layer["oracle.leaves"] == 2 ** 4 + 1     # winner re-evaluated
    assert layer["trace.coverage"] > 0.5


def test_perturbed_standin_solution_fails_with_exit_code_2(tmp_path, monkeypatch):
    workloads.generate("dense-external", 7, str(tmp_path), n=4)
    path = tmp_path / workloads.STANDIN
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("W[0][0][0] "))
    name, value = lines[i].split()
    lines[i] = "%s %r" % (name, float(value) + 1e-3)     # tolerance is 1e-6
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    res = worker.measure("dense-external", seconds=0, trace=0, pins={})
    assert res["attempted"] == len(res["samples"]["run"]) + len(
        res["samples"]["build"]) + len(res["samples"]["reload"]) + 1
    assert [(f["op"], f["rc"]) for f in res["failures"]] == [("run", 2)]


def _current(targets):
    return [owner.__dict__[attr] for owner, attr, _, _ in targets]


def test_traced_run_restores_every_wrapped_callable(tmp_path, monkeypatch):
    before = _current(tracer.TARGETS)
    workloads.generate("dense-external", 11, str(tmp_path), n=4)
    monkeypatch.chdir(tmp_path)
    res = worker.measure("dense-external", seconds=0, trace=1, pins={})
    assert not res["failures"]
    assert res["layers"][0]["ir.evaluate_assignment.calls"] == 2
    after = _current(tracer.TARGETS)
    assert all(a is b for a, b in zip(after, before))

    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr.install():
            assert _current(tracer.TARGETS)[0] is not before[0]
            raise RuntimeError("inside the traced block")
    assert all(a is b for a, b in zip(_current(tracer.TARGETS), before))
