import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mipnn
from mipnn.cli import (EXIT_AUDIT, EXIT_CONFIG, ConfigError, RunConfig, main,
                       parse_config, parse_conv_layers, prepare)
from mipnn.nnspec import ConvLayer

XOR_CSV = "x1,x2,label\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n"


def write_xor_cfg(tmp_path, **overrides):
    csv = tmp_path / "xor.csv"
    csv.write_text(XOR_CSV)
    keys = {
        "data": str(csv), "label": "label", "one_hot": "true",
        "arch": "dense", "hidden": "2", "mode": "train-quantized",
        "alpha": "0.1", "lambda": "0.9", "beta": "0.01", "bigM": "10",
        "bits": "1", "wmax": "1.0", "engine": "bnb", "emit": "lp",
        "out": str(tmp_path / "out"),
    }
    keys.update(overrides)
    cfg = tmp_path / "xor.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in keys.items()))
    return cfg


def test_parse_config_aliases_and_types(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("lambda = 0.5\nbigM = 7\nbits = 3\none_hot = yes\n"
                 "# comment\nbeta = 0.1  # trailing\n")
    cfg = parse_config(str(p))
    assert cfg.lam == 0.5 and cfg.big_m == 7.0 and cfg.bits == 3
    assert cfg.one_hot is True and cfg.beta == 0.1


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(str(p))
    p.write_text("bits\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config(str(p))
    p.write_text("bits = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(str(p))


def test_parse_conv_layers():
    layers = parse_conv_layers("2x3x3, 4x2x2s2p2x2s2")
    assert layers[0] == ConvLayer(filters=2, kernel=(3, 3))
    assert layers[1] == ConvLayer(filters=4, kernel=(2, 2), stride=2,
                                  pool=((2, 2), 2))
    with pytest.raises(ConfigError):
        parse_conv_layers("3x3")


def test_external_template_validated_before_work(tmp_path):
    cfg = write_xor_cfg(tmp_path, engine="external",
                        solver="mysolver {model}")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_run_pipeline_artifacts_and_determinism(tmp_path):
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("model.lp", "solution.txt", "audit.txt", "metrics.txt",
                 "report.txt", "bounds.txt", "stats.txt"):
        assert (out / name).exists(), name
    snap = {name: (out / name).read_bytes()
            for name in os.listdir(out) if name != "run.log"}
    assert main(["run", "--config", str(cfg)]) == 0
    for name, blob in snap.items():
        assert (out / name).read_bytes() == blob, name
    # timing and count lines are confined to run.log and marked
    log = (out / "run.log").read_text()
    assert all(ln.startswith(("# time", "# count")) for ln in log.splitlines() if ln)


def test_verify_accepts_solver_solution(tmp_path):
    cfg = write_xor_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.txt"
    assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == 0


@pytest.mark.parametrize("header", ["objective", "gap"])
def test_verify_rejects_a_header_that_is_not_a_number(tmp_path, capsys, header):
    cfg = write_xor_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.txt"
    lines = sol.read_text().splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("# " + header))
    lines[at] = "# %s abc" % header
    sol.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: %s:%d: %s 'abc' is not a number\n" % (sol, at + 1, header)


def test_verify_rejects_tampered_solution(tmp_path):
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.txt"
    lines = sol.read_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("delta") and ln.endswith(" 0"):
            lines[i] = ln[:-2] + " 1"
            break
    bad = tmp_path / "tampered.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(cfg),
                 "--solution", str(bad)]) == EXIT_AUDIT
    audit = (tmp_path / "out" / "audit.txt").read_text()
    assert "FAILED" in audit and "violation" in audit
    # the violated constraint family is named
    assert "relu_" in audit


def test_external_engine_runs_argv_template(tmp_path):
    cfg = write_xor_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    good = tmp_path / "good.txt"
    shutil.copy(tmp_path / "out" / "solution.txt", good)
    # stand-in solver: reads the model path, writes a known-good solution
    runner = tmp_path / "fake_solver.sh"
    runner.write_text("#!/bin/sh\ntest -f \"$1\" && cp \"%s\" \"$2\"\n" % good)
    runner.chmod(0o755)
    cfg2 = write_xor_cfg(tmp_path, engine="external",
                         solver="%s {model} {solution}" % runner)
    assert main(["run", "--config", str(cfg2)]) == 0


def test_external_solver_failure_reported(tmp_path):
    runner = tmp_path / "bad_solver.sh"
    runner.write_text("#!/bin/sh\nexit 3\n")
    runner.chmod(0o755)
    cfg = write_xor_cfg(tmp_path, engine="external",
                        solver="%s {model} {solution}" % runner)
    assert main(["run", "--config", str(cfg)]) == 4


def test_solution_header_gap_flows_to_metrics(tmp_path):
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.txt"
    text = sol.read_text().replace("# gap 0", "# gap 0.203")
    sol.write_text(text)
    assert main(["eval", "--config", str(cfg), "--solution", str(sol)]) == 0
    metrics = (tmp_path / "out" / "metrics.txt").read_text()
    assert "gap 20.3" in metrics


def test_stats_subcommand(tmp_path, capsys):
    cfg = write_xor_cfg(tmp_path)
    assert main(["stats", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "binary" in out and "constraints" in out


def test_cli_overrides_config(tmp_path):
    cfg = write_xor_cfg(tmp_path)
    alt = tmp_path / "alt"
    assert main(["build", "--config", str(cfg), "--emit", "mps",
                 "--out", str(alt)]) == 0
    assert (alt / "model.mps").exists()


def test_multiple_configs_sequential(tmp_path):
    c1 = write_xor_cfg(tmp_path, out=str(tmp_path / "o1"))
    cfg2_dir = tmp_path / "second"
    cfg2_dir.mkdir()
    c2 = write_xor_cfg(cfg2_dir, out=str(tmp_path / "o2"), beta="0.1")
    assert main(["run", "--config", str(c1), str(c2)]) == 0
    assert (tmp_path / "o1" / "solution.txt").exists()
    assert (tmp_path / "o2" / "solution.txt").exists()


def _artifacts(out):
    """The bytes of every artifact in ``out`` but the timed run.log."""
    return {name: (out / name).read_bytes()
            for name in sorted(os.listdir(out)) if name != "run.log"}


def test_jobs_run_configs_in_a_pool_as_they_run_one_after_the_other(tmp_path):
    cfgs = {}
    for way in ("serial", "pool"):
        for k, beta in enumerate(("0.01", "0.1")):
            d = tmp_path / way / str(k)
            d.mkdir(parents=True)
            cfgs[way, k] = str(write_xor_cfg(d, beta=beta, out=str(d / "out")))
    assert main(["run", "--config", cfgs["serial", 0], cfgs["serial", 1]]) == 0
    assert main(["run", "--config", cfgs["pool", 0], cfgs["pool", 1],
                 "--jobs", "2"]) == 0
    for k in range(2):
        assert (_artifacts(tmp_path / "pool" / str(k) / "out")
                == _artifacts(tmp_path / "serial" / str(k) / "out"))
    broken = write_xor_cfg(tmp_path, hidden="", out=str(tmp_path / "broken"))
    shutil.rmtree(tmp_path / "pool" / "0" / "out")
    assert main(["run", "--config", cfgs["pool", 0], str(broken),
                 "--jobs", "2"]) == EXIT_CONFIG
    assert (_artifacts(tmp_path / "pool" / "0" / "out")
            == _artifacts(tmp_path / "serial" / "0" / "out"))


def test_prepare_rejects_missing_pieces(tmp_path):
    with pytest.raises(ConfigError, match="no data"):
        prepare(RunConfig())
    cfg = parse_config(write_xor_cfg(tmp_path, hidden=""))
    with pytest.raises(ConfigError, match="hidden"):
        prepare(cfg)
    cfg = parse_config(write_xor_cfg(tmp_path, mode="verify"))
    with pytest.raises(ConfigError, match="weights"):
        prepare(cfg)


@pytest.mark.parametrize("key, value", [("bounds", "samples"),
                                        ("bounds_slack", "0.5"),
                                        ("jobs", "2")])
def test_removed_bounds_keys_rejected(tmp_path, capsys, key, value):
    cfg = write_xor_cfg(tmp_path, **{key: value})
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown key %r" % key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def write_conv_cfg(tmp_path, **overrides):
    rng = np.random.default_rng(0)
    rows = ["%s,%d" % (",".join("%.3f" % v for v in rng.uniform(0, 1, 25)), i % 2)
            for i in range(4)]
    csv = tmp_path / "img.csv"
    csv.write_text(",".join("p%d" % k for k in range(25)) + ",label\n"
                   + "\n".join(rows) + "\n")
    keys = {"data": str(csv), "one_hot": "true", "arch": "conv",
            "input_shape": "1,5,5", "conv": "1x2x2", "mode": "train-quantized",
            "bits": "1", "out": str(tmp_path / "out")}
    keys.update(overrides)
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in keys.items()))
    return cfg


@pytest.mark.parametrize("key, value, message", [
    ("quantize_biases", "false", "requires quantized biases"),
    ("conv", "1x2x2p2x2s1", "overlaps")])
def test_build_error_is_a_config_error(tmp_path, capsys, key, value, message):
    cfg = write_conv_cfg(tmp_path, **{key: value})
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(mipnn.__file__))
    out = subprocess.run([sys.executable, "-m", "mipnn", "--help"], capture_output=True,
                         text=True, env={"PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: mipnn")
