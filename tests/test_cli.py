import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recipnet
from recipnet import _kernel
from recipnet.cli import DEFAULTS, main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _k1_config(tmp_path, out, extra=None):
    body = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [1.0], "rho": [[0.5]]},
        "output": {"directory": str(out)},
    }
    if extra:
        body.update(extra)
    return _write_config(tmp_path, body)


def test_analyze_k1_reference(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--config", _k1_config(tmp_path, out)])
    assert code == 0
    report = json.loads((out / "analyze.json").read_text())
    assert report["schema"] == "recipnet/analyze/v1"
    assert report["equilibrium"]["x"] == [1.5]
    assert report["equilibrium"]["c_star"] == 2.5
    assert abs(report["equilibrium"]["lambda_H"] - 0.75) < 1e-9
    assert report["regularity"]["star"] is True
    assert report["contraction"]["norm1"] == 1.0
    assert capsys.readouterr().out.strip() == str(out)


def test_effective_config_echo_and_defaults(tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", "--config", _k1_config(tmp_path, out)])
    assert code == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["solver"]["tol"] == 1e-12
    assert echoed["sim"]["n_steps"] == 100_000
    assert echoed["sim"]["seed"] == 0
    assert echoed["embed"]["replicates"] == 100_000


def test_readme_default_config_matches_schema():
    readme = (CONFIGS.parent.parent / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    [documented] = [b for b in blocks if "solver" in b]
    documented.pop("model")
    # the same sections, keys, order, types and values
    assert json.dumps(documented) == json.dumps(DEFAULTS)


def test_seed_override_echoed(tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", "--config", _k1_config(tmp_path, out), "--seed", "7"])
    assert code == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["sim"]["seed"] == 7
    assert echoed["embed"]["seed"] == 7


def test_simulate_deterministic_bytes(tmp_path):
    cfg = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
                  "rho": [[0.9, 0.9], [0.45, 0.45]]},
        "sim": {"n_steps": 2000, "seed": 5, "emit_edges": True},
    }
    outs = []
    for name in ("a", "b"):
        body = dict(cfg)
        body["output"] = {"directory": str(tmp_path / name)}
        code = main(["simulate", "--config",
                     _write_config(tmp_path, body, f"{name}.json")])
        assert code == 0
        outs.append(tmp_path / name)
    for fname in ("edges.csv", "degrees.csv", "summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_malformed_pi_names_bad_simplex(tmp_path, capsys):
    out = tmp_path / "out"
    body = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.6, 0.5],
                  "rho": [[0.0, 0.0], [0.0, 0.0]]},
        "output": {"directory": str(out)},
    }
    code = main(["analyze", "--config", _write_config(tmp_path, body)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("recipnet: BadSimplex:")
    assert err.count("\n") == 1


def test_bad_dimensions_exit_code(tmp_path, capsys):
    body = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
                  "rho": [[0.0, 0.0]]},
        "output": {"directory": str(tmp_path / "out")},
    }
    code = main(["analyze", "--config", _write_config(tmp_path, body)])
    assert code == 2
    assert "BadDimensions" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    body = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [1.0], "rho": [[0.5]]},
        "simulate": {"n_steps": 10},
    }
    code = main(["analyze", "--config", _write_config(tmp_path, body)])
    assert code == 2
    assert "UnknownKey" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "sim", {"n_steps": "100"}),
    ("simulate", "sim", {"seed": True}),
    ("simulate", "sim", {"snapshots": [10, "20"]}),
    ("simulate", "sim", {"snapshots": 10}),
    ("simulate", "sim", {"emit_edges": "no"}),
    ("verify", "verify", {"n": 5}),
    ("verify", "verify", {"n": 0}),
    ("analyze", "diagnose", {"hill_k_rule": 0}),
    ("analyze", "diagnose", {"hill_k_rule": True}),
    ("embed", "embed", {"replicates": "100"}),
    ("embed", "embed", {"kmax": "3"}),
    ("embed", "embed", {"kmax": -1}),
    ("embed", "embed", {"seed": 1.5}),
    ("analyze", "solver", {"tol": "x"}),
    ("diagnose", "diagnose", {"radius_quantile": 2.0}),
    ("verify", "verify", {"repetitions": 0}),
    ("verify", "verify", {"replicates": "5"}),
    ("analyze", "solver", {"tol": float("inf")}),
], ids=["n_steps-str", "seed-bool", "snapshots-str-entry",
        "snapshots-int", "emit_edges-str", "verify-n-5", "verify-n-0",
        "hill_k_rule-0", "hill_k_rule-bool", "embed-replicates-str", "embed-kmax-str",
        "embed-kmax-negative", "embed-seed-float", "solver-tol-str",
        "radius_quantile-2", "verify-repetitions-0", "verify-replicates-str",
        "solver-tol-inf"])
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, command, section, value):
    out = tmp_path / "out"
    code = main([command, "--config", _k1_config(tmp_path, out, extra={section: value})])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("recipnet: ParseError:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("alpha", "0.5"), ("rho", [[float("nan")]]), ("pi", [float("nan")]),
    ("delta", float("inf")), ("alpha", [0.5]), ("delta", None), ("delta", 1e301),
], ids=["alpha-str", "rho-nan", "pi-nan", "delta-inf", "alpha-list", "delta-null",
        "delta-huge"])
def test_model_value_that_is_no_finite_number_exits_2(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    body = {"model": {"alpha": 0.5, "delta": 1.0, "pi": [1.0], "rho": [[0.5]], key: value},
            "output": {"directory": str(out)}}
    code = main(["analyze", "--config", _write_config(tmp_path, body)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"recipnet: ParameterError: {key} must be")
    assert err.count("\n") == 1 and err.count("recipnet: ") == 1
    assert not out.exists()


MODEL_TEXT = '"model": {"alpha": 0.5, "delta": 1.0, "pi": [1.0], "rho": [[0.5]]}'
LATIN_1 = ("{" + MODEL_TEXT + ', "output": {"directory": "caf\u00e9"}}').encode("latin-1")

# case -> (config file body: an object to dump, bytes as they are, or None
# for no file; the ParseError's message)
CONFIG_REFUSALS = {
    "unreadable": (None, "cannot read config {path}: [Errno 2] No such file or directory: "
                         "'{path}'"),
    "root-not-object": ([1, 2], "config root must be a JSON object"),
    "no-model": ({}, "config must contain a 'model' section"),
    "model-not-object": ({"model": 3}, "'model' must be an object"),
    "section-not-object": ({"model": {"alpha": 0.5, "delta": 1.0, "pi": [1.0], "rho": [[0.5]]},
                            "sim": 3}, "'sim' must be an object"),
    "repeated-section": (("{" + MODEL_TEXT + ', "sim": {"n_steps": 10}, "sim": {"n_steps": 20}}')
                         .encode(), "{path}: repeated key 'sim'"),
    "repeated-sim-key": (("{" + MODEL_TEXT + ', "sim": {"n_steps": 10, "n_steps": 20}}').encode(),
                         "{path}: repeated key 'n_steps'"),
    "repeated-model-key": (("{" + MODEL_TEXT.replace('0.5,', '0.5, "alpha": 0.6,') + "}")
                           .encode(), "{path}: repeated key 'alpha'"),
    "not-utf8": (LATIN_1, f"{{path}}: 'utf-8' codec can't decode byte 0xe9 in position "
                          f"{LATIN_1.index(0xE9)}: invalid continuation byte"),
}


@pytest.mark.parametrize("case", CONFIG_REFUSALS)
def test_config_refusals_exit_2_before_writing(tmp_path, capsys, case):
    body, message = CONFIG_REFUSALS[case]
    path = tmp_path / "config.json"
    if isinstance(body, bytes):
        path.write_bytes(body)
    elif body is not None:
        path.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"recipnet: ParseError: {message.format(path=path)}\n"
    assert not out.exists()


def test_unparseable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["analyze", "--config", str(path)])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_embed_writes_pmf(tmp_path):
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out, extra={
        "embed": {"replicates": 2000, "kmax": 6, "lmax": 6, "seed": 1}})
    code = main(["embed", "--config", cfgpath, "--threads", "1"])
    assert code == 0
    meta = json.loads((out / "pmf.json").read_text())
    assert meta["replicates"] == 2000
    assert (out / "pmf.csv").exists()
    assert (out / "pmf_group_1.csv").exists()


def test_simulate_then_diagnose(tmp_path):
    sim_out = tmp_path / "sim"
    cfg = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
                  "rho": [[0.9, 0.9], [0.45, 0.45]]},
        "sim": {"n_steps": 20_000, "seed": 2},
        "output": {"directory": str(sim_out)},
    }
    assert main(["simulate", "--config", _write_config(tmp_path, cfg, "s.json")]) == 0

    diag_out = tmp_path / "diag"
    cfg["output"] = {"directory": str(diag_out)}
    code = main(["diagnose", "--config", _write_config(tmp_path, cfg, "d.json"),
                 "--input", str(sim_out / "degrees.csv")])
    assert code == 0
    report = json.loads((diag_out / "report.json").read_text())
    assert report["schema"] == "recipnet/diagnose/v1"
    assert report["hill_in"]["index"] > 0
    assert report["hrv"] is not None
    assert (diag_out / "hill_sweep_in.csv").exists()
    assert (diag_out / "angular_hist.csv").exists()


def test_diagnose_uses_configured_hill_k(tmp_path):
    sim_out = tmp_path / "sim"
    cfg = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
                  "rho": [[0.9, 0.9], [0.45, 0.45]]},
        "sim": {"n_steps": 20_000, "seed": 2},
        "diagnose": {"hill_k_rule": 37},
        "output": {"directory": str(sim_out)},
    }
    assert main(["simulate", "--config", _write_config(tmp_path, cfg, "s.json")]) == 0

    diag_out = tmp_path / "diag"
    cfg["output"] = {"directory": str(diag_out)}
    code = main(["diagnose", "--config", _write_config(tmp_path, cfg, "d.json"),
                 "--input", str(sim_out / "degrees.csv")])
    assert code == 0
    report = json.loads((diag_out / "report.json").read_text())
    assert report["hill_in"]["k"] == 37
    assert report["hill_out"]["k"] == 37


def test_diagnose_missing_input_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["diagnose", "--config", _k1_config(tmp_path, out)])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["no-input", "missing-file", "missing-file-in-config",
                                  "directory", "header-without-columns"])
def test_diagnose_refuses_a_bad_input_before_writing(tmp_path, capsys, case):
    """Checked before the output directory is made: exit 2, one line that
    names the error, the key that gave the path, and the path."""
    out = tmp_path / "out"
    path = {"directory": tmp_path}.get(case, tmp_path / "degrees.csv")
    if case == "header-without-columns":
        path.write_text("node,group,in,out\n1,1,2,0\n")
    if case.endswith("in-config"):
        argv = ["--config", _k1_config(tmp_path, out, extra={"diagnose": {"input": str(path)}})]
    else:
        argv = ["--config", _k1_config(tmp_path, out)]
        argv += [] if case == "no-input" else ["--input", str(path)]
    assert main(["diagnose", *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    key = "diagnose.input" if case.endswith("in-config") else "--input"
    assert err[0] == {
        "no-input": "recipnet: ParseError: diagnose requires an input degree CSV "
                    "(--input or diagnose.input)",
        "header-without-columns": f"recipnet: BadInput: --input {path}: {path}: missing "
                                  f"column(s) ['in_deg', 'out_deg']; header is "
                                  f"['node', 'group', 'in', 'out']",
    }.get(case, f"recipnet: BadInput: {key} {path}: cannot read it: "
                f"{'Is a directory' if case == 'directory' else 'No such file or directory'}")
    assert not out.exists()


@pytest.mark.parametrize("body", ["", "1,1,2,0\n2,1,x,0\n"], ids=["header-only", "bad-cell"])
def test_diagnose_bad_rows_below_a_good_header_exit_1(tmp_path, capsys, body):
    degrees = tmp_path / "degrees.csv"
    degrees.write_text("node,group,in_deg,out_deg\n" + body)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", _k1_config(tmp_path, out),
                 "--input", str(degrees)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"recipnet: ValueError: {degrees}: ")
    assert not (out / "report.json").exists()


def test_diagnose_sparse_degrees_skips_hrv(tmp_path):
    # one node with a positive degree: the peel's stage-1 Hill estimate has no
    # order statistic to use, so it is skipped like the marginal Hill estimates.
    # With 2000 zero rows the 0.999 radius quantile is 0 as well.
    for n_zero in (2, 2000):
        rows = "".join(f"{i},{(i - 1) % 2 + 1},0,0\n" for i in range(1, n_zero + 1))
        degrees = tmp_path / f"degrees{n_zero}.csv"
        degrees.write_text(f"node,group,in_deg,out_deg\n{rows}{n_zero + 1},1,3,1\n")
        out = tmp_path / f"out{n_zero}"
        code = main(["diagnose", "--config", str(CONFIGS / "k2.json"), "--out", str(out),
                     "--input", str(degrees)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["hrv"] is None
        assert report["hrv_skip_reason"] == (
            f"need k >= 1 and k+1 <= n, got k=0, n={n_zero + 1}")


@pytest.mark.parametrize("row, column", [
    ("3,1,-7,2", "in_deg"),
    ("3,1,7,-2", "out_deg"),
    ("3,0,7,2", "group"),
    ("3,3,7,2", "group"),
], ids=["in_deg-negative", "out_deg-negative", "group-zero", "group-above-K"])
def test_diagnose_rejects_out_of_range_degree_rows(tmp_path, capsys, row, column):
    degrees = tmp_path / "degrees.csv"
    degrees.write_text(f"node,group,in_deg,out_deg\n1,1,0,1\n2,2,1,0\n{row}\n")
    code = main(["diagnose", "--config", str(CONFIGS / "k2.json"),
                 "--out", str(tmp_path / "out"), "--input", str(degrees)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"recipnet: ValueError: {degrees}: {column} ")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("rows", ["1,1,1,1\n", "1,1,0,0\n2,2,0,0\n"],
                         ids=["one-node", "all-zero"])
def test_diagnose_empty_selection_names_the_input(tmp_path, capsys, rows):
    degrees = tmp_path / "degrees.csv"
    degrees.write_text(f"node,group,in_deg,out_deg\n{rows}")
    code = main(["diagnose", "--config", str(CONFIGS / "k2.json"),
                 "--out", str(tmp_path / "out"), "--input", str(degrees)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"recipnet: EmptySelection: {degrees}: no pair has x+y > ")


def test_embed_refuses_a_count_vector_past_memory_before_writing(tmp_path, capsys,
                                                                  monkeypatch):
    resource = pytest.importorskip("resource")
    out = tmp_path / "out"
    cfg = _k1_config(tmp_path, out)
    assert main(["embed", "--config", cfg, "--kmax", str(10**12), "--replicates", "10"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("recipnet: ConfigError: embed.kmax=1000000000000 and "
                             "embed.lmax=1000000000000 need a ")
    assert err[0].endswith(" bytes of physical memory")
    assert not out.exists()
    # a set address-space limit is the limit: K = 1, so (kmax+1)^2 * 8 bytes against 2^20
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**20, resource.RLIM_INFINITY))
    assert main(["embed", "--config", cfg, "--kmax", "362", "--replicates", "10"]) == 2
    assert capsys.readouterr().err == (
        "recipnet: ConfigError: embed.kmax=362 and embed.lmax=362 need a 1054152-byte "
        "count vector, over the 1048576 bytes of RLIMIT_AS\n")
    assert not out.exists()
    assert main(["embed", "--config", cfg, "--kmax", "361", "--replicates", "10"]) == 0
    assert (out / "pmf.json").exists()


def _int32_refusal(n):
    return (f"recipnet: ConfigError: sim.n_steps={n} implies up to {2 * n + 1} edges, over "
            f"the 2147483647 that int32 node ids, pools and degrees hold\n")


def test_simulate_refuses_n_steps_past_int32_before_writing(tmp_path, capsys, monkeypatch):
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(recipnet.cli, "run", lambda *args: pytest.fail("simulate ran"))
    out = tmp_path / "out"
    cfg = _k1_config(tmp_path, out)
    # on this host's limit, then on one that no graph state reaches
    for huge in (False, True):
        if huge:
            monkeypatch.setattr(resource, "getrlimit", lambda which: (2**200, 2**200))
        assert main(["simulate", "--config", cfg, "--n-steps", str(2**62)]) == 2
        assert capsys.readouterr().err == _int32_refusal(2**62)
        assert not out.exists()
    # 2^30 steps can make 2^31 + 1 edges, one too many; one step fewer meets the memory rule
    assert main(["simulate", "--config", cfg, "--n-steps", str(2**30)]) == 2
    assert capsys.readouterr().err == _int32_refusal(2**30)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**20, resource.RLIM_INFINITY))
    assert main(["simulate", "--config", cfg, "--n-steps", str(2**30 - 1)]) == 2
    assert capsys.readouterr().err.startswith(
        f"recipnet: ConfigError: sim.n_steps={2**30 - 1} needs a ")
    assert not out.exists()


def test_simulate_refuses_a_graph_state_past_memory_before_writing(tmp_path, capsys,
                                                                    monkeypatch):
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**20, resource.RLIM_INFINITY))
    out = tmp_path / "out"
    cfg = _k1_config(tmp_path, out)
    # K = 1: 8(2n+1) bytes of pools and 9(n+2) of degrees and groups, 25n + 26 <= 2^20
    assert main(["simulate", "--config", cfg, "--n-steps", "41943"]) == 2
    assert capsys.readouterr().err == (
        "recipnet: ConfigError: sim.n_steps=41943 needs a 1048601-byte graph state, over the "
        "1048576 bytes of RLIMIT_AS\n")
    assert not out.exists()
    assert main(["simulate", "--config", cfg, "--n-steps", "41942"]) == 0
    assert json.loads((out / "summary.json").read_text())["nodes"] == 41943


@pytest.mark.parametrize("section, key, value", [
    ("sim", "max_edges", 100), ("output", "formats", ["csv", "json"]), ("diagnose", "bins", 50),
], ids=["sim.max_edges", "output.formats", "diagnose.bins"])
def test_removed_key_is_unknown(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    cfg = _k1_config(tmp_path, out, extra={section: {key: value}})
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"recipnet: UnknownKey: unknown key(s) in '{section}': ['{key}']\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["--out", "output.directory"])
@pytest.mark.parametrize("case", ["file", "under-a-file"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, case, key):
    """A path that names a file, or lies under one, is refused before any
    output, with the key that gave it; the file keeps its bytes."""
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory\n")
    out = blocker if case == "file" else blocker / "out"
    if key == "--out":
        argv = ["--config", _k1_config(tmp_path, tmp_path / "unused"), "--out", str(out)]
    else:
        argv = ["--config", _k1_config(tmp_path, out)]
    assert main(["analyze", *argv]) == 2
    reason = "File exists" if case == "file" else "Not a directory"
    assert capsys.readouterr().err == (
        f"recipnet: BadOutput: {key} {out}: cannot make it: {reason}\n")
    assert blocker.read_bytes() == b"not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_verify_subcommand(tmp_path):
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out, extra={
        "verify": {"n": 1, "replicates": 3000, "repetitions": 2, "seed": 0}})
    code = main(["verify", "--config", cfgpath])
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["total"] == 2
    assert payload["passes"] == 2
    assert all(r["p_value"] > 0.001 for r in payload["runs"])


def test_rerun_from_echoed_config_reproduces(tmp_path):
    out1 = tmp_path / "run1"
    cfg = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
                  "rho": [[0.9, 0.9], [0.45, 0.45]]},
        "sim": {"n_steps": 1500, "seed": 9, "emit_edges": True},
        "output": {"directory": str(out1)},
    }
    assert main(["simulate", "--config", _write_config(tmp_path, cfg, "c1.json")]) == 0
    out2 = tmp_path / "run2"
    code = main(["simulate", "--config", str(out1 / "config.json"),
                 "--out", str(out2)])
    assert code == 0
    for fname in ("edges.csv", "degrees.csv", "summary.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_simulate_n_steps_override(tmp_path):
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out)
    code = main(["simulate", "--config", cfgpath, "--n-steps", "500"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_steps"] == 500
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["sim"]["n_steps"] == 500


def test_snapshot_past_n_steps_exits_2(tmp_path, capsys):
    # k2.json snapshots at step 1e6; the override leaves 5e4 steps
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(CONFIGS / "k2.json"), "--out", str(out),
                 "--n-steps", "50000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("recipnet: ParseError: sim.snapshots")
    assert err.count("\n") == 1
    assert not out.exists()


def test_n_steps_override_can_cover_snapshots(tmp_path):
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out, extra={"sim": {"n_steps": 100, "snapshots": [500]}})
    assert main(["simulate", "--config", cfgpath, "--n-steps", "500"]) == 0
    assert (out / "trajectory.csv").read_text().splitlines()[1].startswith("500,")


def test_threads_flag_only_on_embed(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--config", _k1_config(tmp_path, out), "--threads", "2"]) == 2
    assert not out.exists()


def test_embed_starts_no_process_at_any_threads(tmp_path, monkeypatch):
    # 3200000 replicates are 4 chunks of 2^20, all tallied in this process
    # whatever --threads asks for
    def fork():
        pytest.fail("embed forked")

    monkeypatch.setattr(os, "fork", fork)
    cfgpath = _k1_config(tmp_path, tmp_path / "out")
    assert main(["embed", "--config", cfgpath, "--threads", "64",
                 "--replicates", "3200000"]) == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--bogus"],
    ["verify", "--threads", "2"],
    ["embed", "--seed", "x"],
    ["frobnicate"],
    ["embed", "--threads", "0"],
    ["embed", "--threads", "-5"],
], ids=["unknown-flag", "threads-on-verify", "seed-not-int", "unknown-command",
        "threads-zero", "threads-negative"])
def test_argparse_error_is_one_parse_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv[:1] + ["--config", _k1_config(tmp_path, out)] + argv[1:])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("recipnet: ParseError:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_negative_seed_override_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["embed", "--config", _k1_config(tmp_path, out), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("recipnet: ParseError: sim.seed")
    assert not out.exists()


def test_embed_all_replicates_failed_exits_1(tmp_path, capsys, monkeypatch):
    from recipnet import cli
    from recipnet.branching import JointPmfEstimate

    def all_failed(params, sol, replicates, kmax, lmax, **_):
        return JointPmfEstimate(
            group_counts=np.zeros((params.K, kmax + 1, lmax + 1), dtype=np.int64),
            group_overflow_counts=np.zeros(params.K, dtype=np.int64),
            replicates=replicates, failed=replicates, kmax=kmax, lmax=lmax)

    monkeypatch.setattr(cli, "estimate_pkl", all_failed)
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out, extra={
        "embed": {"replicates": 30, "kmax": 4, "lmax": 4}})
    assert main(["embed", "--config", cfgpath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("recipnet: EventBudgetExceeded:") and "30 failed of 30" in err
    assert err.count("\n") == 1
    assert not (out / "pmf.json").exists() and not (out / "pmf.csv").exists()


def test_verify_writes_strict_json_on_impossible_support(tmp_path, monkeypatch):
    from recipnet import cli
    from recipnet.embedding import EquivalenceReport

    def impossible(params, n, replicates, seed):
        return EquivalenceReport(n=n, replicates=replicates, statistic=float("inf"), df=3,
                                 p_value=0.0, max_abs_dev=0.5, n_cells=4, n_merged=0,
                                 impossible_support=True)

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    monkeypatch.setattr(cli, "verify_equivalence", impossible)
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out, extra={"verify": {"n": 1, "replicates": 10}})
    assert main(["verify", "--config", cfgpath]) == 0   # the report says it failed
    report = json.loads((out / "verify.json").read_text(), parse_constant=refuse)
    assert report["passes"] == 0 and report["total"] == 1
    run = report["runs"][0]
    assert run["statistic"] is None and run["impossible_support"] is True
    assert run["p_value"] == 0.0 and run["pass"] is False


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, recipnet.cli; print('scipy' in sys.modules)"
    src = str(Path(recipnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    assert done.stdout.strip() == "False"


def test_every_subcommand_runs_without_scipy(tmp_path):
    # the same five runs in two fresh interpreters, one with scipy blocked;
    # relative paths keep the echoed config.json equal between the two
    body = {
        "model": {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
                  "rho": [[0.9, 0.9], [0.45, 0.45]]},
        "sim": {"n_steps": 20_000, "seed": 2, "snapshots": [5000], "emit_edges": True},
        "embed": {"replicates": 3000, "kmax": 6, "lmax": 6, "seed": 1},
        "diagnose": {"input": "simulate/degrees.csv"},
        "verify": {"n": 3, "replicates": 3000, "seed": 4},
    }
    runs = [[command, "--config", "../config.json", "--out", command]
            for command in ("analyze", "simulate", "embed", "diagnose", "verify")]
    runs[2] += ["--threads", "1"]
    (tmp_path / "config.json").write_text(json.dumps(body))
    src = str(Path(recipnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    trees = {}
    for side, block in (("open", ""), ("blocked", "sys.modules['scipy'] = None; ")):
        code = (f"import sys; {block}import recipnet.cli; "
                f"sys.exit(max(recipnet.cli.main(argv) for argv in {runs!r}))")
        cwd = tmp_path / side
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=cwd, env=env)
        assert done.returncode == 0, done.stderr
        trees[side] = {str(f.relative_to(cwd)): f.read_bytes()
                       for f in sorted(cwd.rglob("*")) if f.is_file()}
    assert {"verify/verify.json", "diagnose/report.json", "embed/pmf.json",
            "simulate/degrees.csv", "analyze/analyze.json"} <= set(trees["open"])
    assert trees["blocked"] == trees["open"]


def test_missing_model_key_message_does_not_depend_on_hash_seed(tmp_path):
    # the first missing key in the order alpha, delta, pi, rho is named,
    # whatever order a set of the missing keys would iterate in
    cfgpath = _write_config(tmp_path, {"model": {"alpha": 0.5}})
    src = str(Path(recipnet.__file__).parent.parent)
    code = f"import sys, recipnet.cli; sys.exit(recipnet.cli.main(['analyze', '--config', {cfgpath!r}]))"
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 2
        assert done.stderr == "recipnet: ParseError: model section is missing 'delta'\n"


# recipnet modules a launch must not load: each subcommand imports only what it runs
NOT_LOADED = {
    None: {"simulate", "branching", "embedding", "equilibrium", "tails"},   # the import alone
    "analyze": {"simulate", "branching", "embedding", "tails"},
    "simulate": {"branching", "embedding", "tails", "equilibrium"},
    "embed": {"simulate", "embedding", "tails"},
    "diagnose": {"simulate", "branching", "embedding"},
    "verify": {"simulate", "branching", "tails", "equilibrium"},
}


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    # one fresh interpreter per launch, with scipy blocked as in CI
    out = tmp_path / "out"
    cfgpath = _k1_config(tmp_path, out, extra={
        "sim": {"n_steps": 2000, "seed": 1},
        "embed": {"replicates": 2000, "kmax": 4, "lmax": 4},
        "diagnose": {"input": str(out / "degrees.csv")},
        "verify": {"n": 1, "replicates": 500},
    })
    src = str(Path(recipnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for command, forbidden in NOT_LOADED.items():
        argv = None if command is None else [command, "--config", cfgpath]
        if command == "embed":
            argv += ["--threads", "1"]
        code = ("import sys, json; sys.modules['scipy'] = None; import recipnet.cli; "
                f"argv = {argv!r}; code = 0 if argv is None else recipnet.cli.main(argv); "
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('recipnet.')))); "
                "sys.exit(code)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 0, (command, done.stderr)
        loaded = {m.split(".", 1)[1] for m in json.loads(done.stdout.splitlines()[-1])}
        assert "cli" in loaded and not loaded & forbidden, (command, sorted(loaded))


# exits 77 where a plain ``import numpy`` already loads numpy.random
WITHOUT_NUMPY_RANDOM = """
import sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit(77)
sys.modules["numpy.random"] = None
from recipnet import _kernel, cli
if _kernel.load() is None:
    sys.exit(f"no compiled kernel: {_kernel.error}")
for argv in ARGVS:
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


@pytest.mark.skipif(shutil.which(_kernel.CC) is None,
                    reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_drawing_subcommands_never_import_numpy_random(tmp_path):
    # with the kernel loaded every draw comes from its PCG64, so numpy.random
    # blocked in a fresh interpreter fails no subcommand that draws; embed's
    # 3200000 replicates are 4 chunks of 2^20
    cfg = str(CONFIGS / "k1.json")
    argvs = [["simulate", "--config", cfg, "--out", str(tmp_path / "simulate"),
              "--n-steps", "20000"],
             ["verify", "--config", cfg, "--out", str(tmp_path / "verify")],
             ["embed", "--config", cfg, "--out", str(tmp_path / "embed"), "--threads", "2",
              "--replicates", "3200000"]]
    src = str(Path(recipnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", f"ARGVS = {argvs!r}\n{WITHOUT_NUMPY_RANDOM}"],
                          capture_output=True, text=True, env=env)
    if done.returncode == 77:
        pytest.skip("import numpy loads numpy.random")
    assert done.returncode == 0, done.stderr


# the variables OpenBLAS reads its thread count from, in its order
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="counts OS threads in /proc/self/task")


def _fresh(code, **preset):
    """Run ``code`` in a fresh interpreter whose environment has none of the
    BLAS variables but ``preset``; the JSON on its last output line."""
    src = str(Path(recipnet.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _threads_after_import(first="pass", **preset):
    """Run ``first``, then ``import recipnet.cli``: the OS thread counts
    before and after the import, and what it did to ``os.environ``."""
    return _fresh(
        f"import json, os; {first}; environ = dict(os.environ); "
        "before = len(os.listdir('/proc/self/task')); import recipnet.cli; "
        "print(json.dumps({'before': before, 'tasks': len(os.listdir('/proc/self/task')), "
        "'environ_kept': dict(os.environ) == environ, "
        f"'blas_vars': [v for v in {BLAS_VARS!r} if v in os.environ]}}))", **preset)


@linux_only
def test_cli_import_runs_on_one_os_thread():
    got = _threads_after_import()
    assert got["tasks"] == 1
    assert got["environ_kept"] and got["blas_vars"] == []


@linux_only
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable CPUs")
def test_users_openblas_thread_count_wins():
    got = _threads_after_import(OPENBLAS_NUM_THREADS="2")
    assert got["tasks"] == 2
    assert got["environ_kept"] and got["blas_vars"] == ["OPENBLAS_NUM_THREADS"]


@linux_only
def test_numpy_imported_first_is_left_alone():
    # recipnet cannot pin a library that is already loaded, and does not try
    got = _threads_after_import("import numpy")
    plain = _fresh("import json, os, numpy; print(len(os.listdir('/proc/self/task')))")
    assert got["tasks"] == got["before"] == plain
    assert got["environ_kept"] and got["blas_vars"] == []
