"""The benchmark's tracer wraps mipnn callables by name; a refactor that
moves or renames one should fail here rather than in a benchmark run."""

import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_in_its_owners_namespace():
    tracer = _tracer()
    for owner, attr, name, kind in tracer.TARGETS:
        assert attr in owner.__dict__, "%s (%s) moved off %r" % (attr, name, owner)
        if kind == tracer.LEAF:
            # the leaf wrapper calls fn(build, bits, tol)
            params = list(inspect.signature(owner.__dict__[attr]).parameters)
            assert params == ["self", "bits", "tol"], (name, params)
