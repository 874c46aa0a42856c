import argparse
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mipnn
from mipnn import cli, emit
from mipnn.cli import (EXIT_AUDIT, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_SOLVER,
                       ConfigError, RunConfig, build_parser, main, parse_config,
                       parse_conv_layers, prepare)
from mipnn.nnspec import ConvLayer, vn

XOR_CSV = "x1,x2,label\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n"
SAMPLE_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "samples", "xor.cfg")


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


@pytest.mark.parametrize("key, value, flags", [
    ("subset", "-3", []),
    ("tolerance", "nan", []),
    ("tolerance", "1e-6", ["--tolerance", "-1"]),
    ("timeout", "-1", []),
    ("timeout", "nan", []),
    ("timeout", "5", ["--timeout", "0"]),
    ("budget", "0", []),
    ("limit_bits", "-1", []),
])
def test_values_that_cannot_work_are_config_errors(tmp_path, capsys, key, value, flags):
    """Checked once the flags are applied, before any work: the message
    names the key."""
    cfg = write_xor_cfg(tmp_path, **{key: value})
    assert main(["run", "--config", str(cfg)] + flags) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: %s must be " % key)
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("value", ["-1", "nan"])
def test_a_wmax_that_cannot_work_is_a_config_error(tmp_path, capsys, value):
    cfg = write_xor_cfg(tmp_path, wmax=value)
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: wmax must be ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--beta", "inf"),
                                         ("--bigM", "nan")])
def test_hyperparameters_that_are_not_finite_are_refused_before_the_build(
        tmp_path, capsys, flag, value):
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: %s must be " % flag[2:])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, code", [
    (["run", "--config", SAMPLE_CFG, "--emit", "foo"], EXIT_CONFIG),
    (["run", "--config", SAMPLE_CFG, "--bits", "two"], EXIT_CONFIG),
    (["frobnicate", "--config", SAMPLE_CFG], EXIT_CONFIG),
    (["run", "--help"], 0),
])
def test_a_usage_error_exits_1_and_help_exits_0(capsys, args, code):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == code
    if code:
        assert "error: " in capsys.readouterr().err


# flag -> (value, the RunConfig field it sets, that field's value); each value
# differs from samples/xor.cfg's own
FLAG_FIELDS = {
    "--mode": ("verify", "mode", "verify"),
    "--engine": ("oracle", "engine", "oracle"),
    "--emit": ("mps", "emit", "mps"),
    "--alpha": ("0.5", "alpha", 0.5),
    "--lambda": ("0.25", "lam", 0.25),
    "--beta": ("0.125", "beta", 0.125),
    "--bigM": ("7", "big_m", 7.0),
    "--bits": ("3", "bits", 3),
    "--tolerance": ("1e-4", "tolerance", 1e-4),
    "--timeout": ("30", "timeout", 30.0),
    "--seed": ("5", "seed", 5),
    "--out": ("elsewhere", "out", "elsewhere"),
    "--solver": ("s {model} {solution}", "solver", "s {model} {solution}"),
}


def test_every_flag_overrides_its_key(tmp_path, monkeypatch):
    path = str(tmp_path / "xor.cfg")
    shutil.copy(SAMPLE_CFG, path)
    seen = []

    def stop(cfg):
        seen.append(cfg)
        raise ConfigError("stopped before any work")

    monkeypatch.setattr(cli, "prepare", stop)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, parser in commands.items():
        flags = [a.option_strings[-1] for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)]
        # --config, --jobs and --solution set no RunConfig field
        assert set(flags) - {"--config", "--jobs", "--solution"} == set(FLAG_FIELDS)
        for flag, (value, name, expected) in FLAG_FIELDS.items():
            assert getattr(parse_config(path), name) != expected
            argv = [command, "--config", path, flag, value]
            if "--solution" in flags:
                argv += ["--solution", "s.txt"]
            assert main(argv) == EXIT_CONFIG
            assert getattr(seen.pop(), name) == expected, (command, flag)

def test_a_relative_data_path_resolves_against_the_working_directory(
        tmp_path, capsys, monkeypatch):
    cfg = write_xor_cfg(tmp_path, data="xor.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'xor.csv'" in err


@pytest.mark.parametrize("command", ["verify", "eval", "report"])
def test_an_unreadable_solution_file_is_a_config_error(tmp_path, capsys, command):
    cfg = write_xor_cfg(tmp_path)
    missing = tmp_path / "missing.txt"
    assert main([command, "--config", str(cfg), "--solution", str(missing)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_a_data_value_that_is_not_finite_is_refused(tmp_path, capsys, value):
    cfg = write_xor_cfg(tmp_path)
    (tmp_path / "xor.csv").write_text(XOR_CSV.replace("1,0,1", "%s,0,1" % value))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: %s:4: value that is not finite\n" % (tmp_path / "xor.csv"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subset, indices, bad, n", [
    ("0", [0, 7, 9], 7, 4),
    ("2", [1, 3], 3, 2),          # checked against the samples the subset keeps
])
def test_split_indices_out_of_range_are_config_errors(tmp_path, capsys, subset,
                                                      indices, bad, n):
    split = tmp_path / "split.txt"
    split.write_text("".join("%d\n" % i for i in indices))
    cfg = write_xor_cfg(tmp_path, split=str(split), subset=subset)
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: %s: split index %d out of range for %d samples\n" % (split, bad, n))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, shape", [("W0", (3, 2)), ("b1", (3,))])
def test_fixed_weights_of_the_wrong_shape_are_config_errors(tmp_path, capsys, name, shape):
    rng = np.random.default_rng(0)
    arrays = {"W0": (2, 2), "b0": (2,), "W1": (2, 2), "b1": (2,)}
    expected, arrays[name] = arrays[name], shape
    weights = tmp_path / "w.npz"
    np.savez(weights, **{k: rng.uniform(-1, 1, size=v) for k, v in arrays.items()})
    cfg = write_xor_cfg(tmp_path, mode="verify", weights=str(weights))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: %s: array %s has shape %r, expected %r\n" % (
        weights, name, shape, expected)
    assert not (tmp_path / "out").exists()


def _cut_zip(path):
    np.savez(path, W0=np.zeros((2, 2)))
    path.write_bytes(path.read_bytes()[:40])


@pytest.mark.parametrize("name, write", [
    ("w.npy", lambda path: np.save(path, np.zeros((2, 2)))),
    ("xor.csv", lambda path: path.write_text(XOR_CSV)),
    ("empty.npz", lambda path: path.write_bytes(b"")),
    ("cut.npz", _cut_zip),
])
def test_a_weights_file_that_is_not_an_npz_archive_is_a_config_error(
        tmp_path, capsys, name, write):
    weights = tmp_path / "weights" / name
    weights.parent.mkdir()
    write(weights)
    cfg = write_xor_cfg(tmp_path, mode="verify", weights=str(weights))
    assert main(["build", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: %s: not an npz archive\n" % weights
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, line, fields", [
    (["0,0"], 2, 2),                                     # too few
    (["0,0,0", "0,1,1", "1,0,1", "1,1,0,5"], 5, 4),      # one too many
    (["0,0,0,1", "0,1,1,1", "1,0,1,1", "1,1,0,1"], 2, 4),  # a fourth on every row
])
def test_a_data_row_whose_field_count_differs_from_the_header_is_refused(
        tmp_path, capsys, rows, line, fields):
    cfg = write_xor_cfg(tmp_path)
    data = tmp_path / "xor.csv"
    data.write_text("x1,x2,label\n" + "".join(row + "\n" for row in rows))
    assert main(["build", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: %s:%d: %d fields, the header has 3\n" % (data, line, fields))
    assert not (tmp_path / "out").exists()


def test_bnb_deadline_without_incumbent_is_a_solver_error(tmp_path, capsys):
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--timeout", "1e-9"]) == EXIT_SOLVER
    assert capsys.readouterr().err == (
        "solver error: search reached its 1e-09s timeout without an incumbent\n")
    # a budget that runs out is still reported as before
    cfg = write_xor_cfg(tmp_path, budget="1")
    assert main(["run", "--config", str(cfg), "--timeout", "60"]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "infeasible: search exhausted its budget without an incumbent\n")


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


@pytest.mark.parametrize("token", [
    "2x3x3s0",          # conv stride
    "2x3x3p2x2s0",      # pool stride
    "0x3x3",            # filters
    "2x2x2p0x2s1",      # a pool window side
    "2x0x3",            # a kernel side
])
def test_conv_layer_sizes_below_one_are_config_errors(tmp_path, capsys, token):
    with pytest.raises(ConfigError, match="bad conv layer token %r" % token):
        parse_conv_layers(token)
    cfg = write_conv_cfg(tmp_path, conv=token)
    assert main(["build", "--config", str(cfg)]) == EXIT_CONFIG
    assert "bad conv layer token %r" % token in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(mipnn.__file__))
    out = subprocess.run([sys.executable, "-m", "mipnn", "--help"], capture_output=True,
                         text=True, env={"PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: mipnn")


@pytest.mark.parametrize("write, key, value", [
    (write_xor_cfg, "hidden", "2,x"),
    (write_conv_cfg, "input_shape", "1,a"),
])
def test_layer_widths_that_are_not_integers_are_config_errors(
        tmp_path, capsys, write, key, value):
    cfg = write(tmp_path, **{key: value})
    assert main(["build", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: %s must be comma-separated integers, not %r\n" % (key, value))
    assert not (tmp_path / "out").exists()


def test_a_conv_verify_run_fixes_its_weights_and_reports_the_conv_block(tmp_path):
    """A verify-mode conv run reads its kernels and head from an npz, fixes
    every parameter of the model at them and writes the conv report block."""
    rng = np.random.default_rng(1)
    arrays = {"K0": rng.uniform(-1, 1, size=(1, 1, 2, 2)), "b0": rng.uniform(-1, 1, size=1),
              "Wh": rng.uniform(-1, 1, size=(2, 16)), "bh": rng.uniform(-1, 1, size=2)}
    weights = tmp_path / "w.npz"
    np.savez(weights, **arrays)
    cfg = write_conv_cfg(tmp_path, mode="verify", weights=str(weights))
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "audit.txt").read_text().startswith("ok\n")
    prep = prepare(parse_config(str(cfg)))
    values = emit.read_solution(prep.build.model, str(out / "solution.txt")
                                ).assignment.values
    for (w, b, l), (K, bias) in zip([("Wc", "bc", 0), ("W", "b", 1)],
                                    [(arrays["K0"], arrays["b0"]),
                                     (arrays["Wh"], arrays["bh"])]):
        for idx in np.ndindex(K.shape):
            assert values[vn(w, l, *idx)] == K[idx]
        for j in range(len(bias)):
            assert values[vn(b, l, j)] == bias[j]
    report = (out / "report.txt").read_text().splitlines()
    assert [line.split("  ")[0] for line in report] == [
        "Test Accuracy", "Retained Filters", "CNN Weight Sparsity",
        "Dense Weight Sparsity", "Final MIP Gap"]
    assert report[1].endswith("  1 of 1") and report[2].endswith("  0.0%")


def test_report_with_a_solution_rewrites_the_runs_report(tmp_path, capsys):
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    want = (out / "report.txt").read_text()
    (out / "report.txt").unlink()
    capsys.readouterr()
    assert main(["report", "--config", str(cfg),
                 "--solution", str(out / "solution.txt")]) == 0
    assert capsys.readouterr().out == want == (out / "report.txt").read_text()
    assert want.startswith("Dataset & Hidden Layers")


@pytest.mark.parametrize("shape", ["1,4,4", "1,1,5", "1,-5,-5", "5,5"])
def test_an_input_shape_that_does_not_hold_a_data_row_is_a_config_error(
        tmp_path, capsys, shape):
    """The conv data has 25 features a row: 1,1,5 would cut 4 rows into 20
    samples, and 1,4,4 cannot cut them at all."""
    cfg = write_conv_cfg(tmp_path, input_shape=shape)
    assert main(["build", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: input_shape must be C,H,W, sizes of at least 1 whose product is "
        "the 25 features of a data row, not %r\n" % shape)
    assert not (tmp_path / "out").exists()
