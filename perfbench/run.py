"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-external --seed 1 --seconds 40 --trace 0

Set-up runs ``workloads.py`` in fresh interpreters (at least SETUP_MIN_REPS
times, more while they total under SETUP_MIN_S) and reports the median as
``setup_s``.  The measurement then runs ``worker.py`` in one more fresh
interpreter, so no set-up model is alive on its heap and its peak memory is
its own.  The last line of standard output is the JSON result; everything
else goes to standard error.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.
``--workload all`` runs the three workloads in turn and prints one line each.

Exit status 0 means a result was printed (``correct`` says whether every
check passed); 1 means the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 25, 2.0
# the worker may overrun --seconds by its start-up, one cycle (it always runs
# at least one, and a traced xor-exact cycle takes about 20 s) and the writing
# of its result
WORKER_MARGIN_S = 120


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # one process with one thread of load: the numeric libraries may not
    # start their own thread pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(argv, timeout, **kwargs):
    """Run a fresh interpreter on a benchmark script and wait for it."""
    try:
        proc = subprocess.run([sys.executable] + argv, env=_env(),
                              timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %ds" % (argv[0], timeout))
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (argv[0], proc.returncode))
    return proc


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def benchmark(workload, seed, seconds, trace, n=None):
    """Set up and measure one workload; returns the result object."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mipnn", "__init__.py")):
        raise BenchError("no mipnn source under %s" % ROOT)
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, seed))
    setup = []
    while len(setup) < SETUP_MIN_REPS or (
            sum(setup) < SETUP_MIN_S and len(setup) < SETUP_MAX_REPS):
        # each set-up writes new files, never over old ones (see worker._clear)
        shutil.rmtree(workdir, ignore_errors=True)
        argv = [os.path.join(HERE, "workloads.py"), "--workload", workload,
                "--seed", str(seed), "--dir", workdir]
        if n is not None:
            argv += ["--n", str(n)]
        proc = _child(argv, timeout=120, stdout=subprocess.PIPE, text=True)
        setup.append(float(proc.stdout.split()[-1]))

    pins = {}
    if n is None:
        pins = load_pins().get(workload, {}).get(str(seed), {})
        if not pins:
            print("no pins for %s seed %d: digests are checked for agreement "
                  "within this run only" % (workload, seed), file=sys.stderr)
    result_path = os.path.join(workdir, "result.json")
    _child([os.path.join(HERE, "worker.py"), "--workload", workload,
            "--dir", workdir, "--seconds", str(seconds),
            "--trace", str(int(trace)), "--pins", json.dumps(pins),
            "--result", result_path],
           timeout=seconds + WORKER_MARGIN_S,
           stdout=sys.stderr)
    with open(result_path) as fh:
        res = json.load(fh)
    _summarize(workload, setup, res)

    samples = res["samples"]
    if trace:
        values = {}
        for layer in res["layers"]:
            for name, value in layer.items():
                values.setdefault(name, []).append(value)
        # the lower median keeps a count that repeats exactly an integer
        values = {name: statistics.median_low(v) for name, v in values.items()}
        values["trace.overhead_s"] = (_median(samples["traced_run"])
                                      - _median(samples["run"]))
        group = "per_layer"
    else:
        values = {
            "setup_s": _median(setup),
            "run_s": _median(samples["run"]),
            "compile_s": _median(samples["build"]),
            "reload_s": _median(samples["reload"]),
            "peak_rss_mb": res.get("peak_rss_mb", 0.0),
            "model_bytes": res.get("model_bytes", 0),
            "model_rows": res.get("model_rows", 0),
        }
        group = "end_to_end"
    failed = len(res["failures"])
    metrics = {}
    for m in load_spec()[group]:
        name = m["name"]
        # a constraint family the workload does not build has no rows, and
        # operations that all failed measured nothing
        optional = failed or name.startswith("ir.rows.")
        value = values.get(name, 0) if optional else values[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": failed,
            "metrics": metrics}


def _summarize(workload, setup, res):
    """Sample counts, quartiles and failures, for the reader of stderr."""
    lines = ["%s: setup %d samples, median %.4fs"
             % (workload, len(setup), _median(setup))]
    for op, xs in sorted(res["samples"].items()):
        if len(xs) >= 2:
            q = statistics.quantiles(xs, n=4)
            lines.append("  %-10s %3d samples  median %.4fs  q1 %.4fs  q3 %.4fs"
                         % (op, len(xs), _median(xs), q[0], q[2]))
        elif xs:
            lines.append("  %-10s %3d sample   %.4fs" % (op, len(xs), xs[0]))
    for f in res["failures"]:
        lines.append("  FAILED %s (exit code %s): %s"
                     % (f["op"], f["rc"], "; ".join(f["problems"])))
    print("\n".join(lines), file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)
    names = workloads.WORKLOADS if ns.workload == "all" else (ns.workload,)
    try:
        results = [(w, benchmark(w, ns.seed, ns.seconds, ns.trace))
                   for w in names]
    except (BenchError, OSError) as e:
        print("benchmark could not run: %s" % e, file=sys.stderr)
        return 1
    for w, res in results:
        if ns.workload == "all":
            res = dict(workload=w, **res)
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
