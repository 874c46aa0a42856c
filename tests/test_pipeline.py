"""The CLI pipeline around the audit: one audit per run, the count lines of
run.log, and the parameter box behind the interval bounds."""

import os

from mipnn import recon
from mipnn.cli import EXIT_AUDIT, main, parse_config, prepare

from test_cli import write_xor_cfg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_unquantized_biases_share_the_weight_box():
    cfg = parse_config(os.path.join(ROOT, "samples", "xor.cfg"))
    cfg.data = os.path.join(ROOT, cfg.data)
    cfg.quantize_biases = False
    prep = prepare(cfg)
    # inputs in [0, 1], two weights and a bias in [-w_max, w_max] = [-1, 1]
    assert prep.btable.relu_bounds(0) == (-3.0, 3.0)
    model = prep.build.model
    bias = model.variables[model.var_index["b[0][0]"]]
    assert (bias.lo, bias.hi) == (-1.0, 1.0)


def test_run_audits_once_and_logs_counts(tmp_path, monkeypatch):
    calls = []
    audit = recon.audit
    monkeypatch.setattr(recon, "audit", lambda *a, **k: calls.append(1) or audit(*a, **k))
    cfg = write_xor_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(calls) == 1

    out = tmp_path / "out"
    counts = {}
    for ln in (out / "run.log").read_text().splitlines():
        if ln.startswith("# count "):
            *key, value = ln.split()[2:]
            counts[" ".join(key)] = value
    objective = (out / "solution.txt").read_text().splitlines()[0].split()[-1]
    assert int(counts["nodes"]) >= int(counts["candidates"]) > 0
    assert float(counts["bound"]) == float(objective)
    assert counts["proven"] == "1"
    # prune rows carry bigM; the quantized digit rows carry 2 * w_max
    assert float(counts["max_coef prune_weights"]) == 10.0
    assert float(counts["max_coef quant_weight_def"]) == 2.0
    for name in ("solution.txt", "audit.txt", "metrics.txt", "stats.txt"):
        assert "# count" not in (out / name).read_text()


def test_eval_refuses_a_solution_that_fails_its_audit(tmp_path, capsys):
    cfg = write_xor_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.txt"
    lines = sol.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("z["))
    name, value = lines[k].split()
    lines[k] = "%s %r" % (name, float(value) + 1.0)
    sol.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for command in ("eval", "report"):
        assert main([command, "--config", str(cfg), "--solution", str(sol)]) == EXIT_AUDIT
        assert capsys.readouterr().err.startswith("audit error: audit failed")
