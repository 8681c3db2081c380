import argparse
import dataclasses
import gzip
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import corrbound as cb
from corrbound import blocks, cli, examples, recursion
from corrbound.examples import MA_COEFF_MAX
from conftest import simple_scalar_model
from reference_steps import run_plain


def run_cli(args):
    return cli.main(args)


def test_run_row_count(tmp_path):
    out = tmp_path / "e1.csv"
    assert run_cli(["run", "--model", "example1", "--horizon", "40",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 41  # header + one row per step
    header = lines[0].split(",")
    assert header[0] == "k"
    assert "J_00" in header and "bound_00" in header and "sqrt_bound_0" in header


def test_run_csv_roundtrips_exactly(tmp_path):
    out = tmp_path / "e1.csv"
    run_cli(["run", "--model", "example1", "--horizon", "7", "--out", str(out)])
    model = cb.build_example1()
    trace = cb.run(model, cb.ExpectationEstimator(), 7)
    lines = out.read_text().strip().splitlines()
    for info, line in zip(trace.info[trace.index], lines[1:]):
        fields = line.split(",")
        parsed = np.array([float(v) for v in fields[1:5]]).reshape(2, 2)
        assert np.array_equal(parsed, info)


def test_run_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["run", "--model", "example2", "--horizon", "8",
            "--samples", "20000", "--seed", "7"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_deterministic_across_workers(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w3.csv"
    base = ["run", "--model", "example2", "--horizon", "8",
            "--samples", "30000", "--seed", "9"]
    assert run_cli(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run_cli(base + ["--workers", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sensors_deterministic_across_workers(tmp_path):
    # 10k samples are 20 sample blocks, spread over every worker.
    base = ["sensors", "--model", "example2", "--samples", "10000", "--max-m", "3",
            "--horizon", "10", "--seed", "7"]
    outs = []
    for workers in (1, 2, 4):
        outs.append(tmp_path / f"w{workers}.csv")
        assert run_cli(base + ["--workers", str(workers), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_run_with_one_sample_block_deterministic_across_workers(tmp_path):
    # 1025 samples: two full blocks and a last block of one sample.
    base = ["run", "--model", "example2", "--horizon", "8", "--samples", "1025",
            "--seed", "3"]
    outs = [tmp_path / "w1.csv", tmp_path / "w3.csv"]
    assert run_cli(base + ["--workers", "1", "--out", str(outs[0])]) == 0
    assert run_cli(base + ["--workers", "3", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("model", ["example1", "scalar_no_closed_c", "nonlinear"])
def test_finite_difference_mc_deterministic_across_workers(tmp_path, monkeypatch, model):
    # 40 samples in chunks of 16: three chunks, spread over up to three
    # threads and summed in chunk order.  The scalar random walk without its
    # measurement closed form samples that factor at every time and its
    # transition once; the nonlinear model has no closed forms, so both of
    # its factors are sampled at every time.
    monkeypatch.setattr(blocks, "CHUNK_SIZE", 16)
    monkeypatch.setattr(blocks.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    source = ["--model", model]
    if model != "example1":
        monkeypatch.setattr(examples, "scalar_no_closed_c", lambda: dataclasses.replace(
            simple_scalar_model(), analytic_c=None), raising=False)
        factory = {"nonlinear": "conftest:nonlinear_scalar_model",
                   "scalar_no_closed_c": "corrbound.examples:scalar_no_closed_c"}[model]
        source = ["--config", str(tmp_path / "custom.json")]
        Path(source[1]).write_text(json.dumps({"model": {"kind": "custom", "factory": factory}}))
    base = ["run", *source, "--mode", "finite_difference_mc", "--horizon", "6",
            "--samples", "40", "--seed", "5"]
    outs = []
    for workers in (1, 2, 3):
        outs.append(tmp_path / f"w{workers}.csv")
        assert run_cli(base + ["--workers", str(workers), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_readme_config_example_serves_its_commands(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration files", 1)[1]
    block, after = section.split("```json\n", 1)[1].split("```", 1)
    config = json.loads(block)
    config["output"]["path"] = str(tmp_path / "out.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    commands = re.findall(r"`([a-z-]+)`", re.search(r"This file serves (.*?)\.", after)[1])
    assert commands and set(commands) <= {"run", "compare", "oracle-verify", "sensors"}
    for command in commands:
        assert run_cli([command, "--config", str(path)]) == 0, command


def test_readme_settings_table_matches_the_cli():
    # The table under "Configuration files" documents cli._SETTINGS: each
    # setting's entry and flag, the commands whose parser takes that flag,
    # and its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration files", 1)[1].split("```json", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[re.match(r"`([a-z_.]+)`", cells[0])[1]] = cells[1:]
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for section_name, key, dest, default, *_ in cli._SETTINGS:
        entry = key if section_name is None else f"{section_name}.{key}"
        flag_cell, commands_cell, default_cell = rows.pop(entry)
        flag = "--" + dest.replace("_", "-")
        assert re.match(rf"`{flag}`", flag_cell), entry
        taking = {name for name, sub in subparsers.items()
                  if flag in sub._option_string_actions}
        documented = (set(subparsers) if commands_cell == "all"
                      else set(re.findall(r"`([a-z-]+)`", commands_cell)))
        assert documented == taking, entry
        # Literal scalar defaults; the empty baselines list means every one.
        if isinstance(default, (int, str)):
            assert str(default) in default_cell, entry
    assert rows == {}


def test_readme_mode_list_matches_the_estimator():
    # The bullets under "Estimator modes and their cost" name every mode.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Estimator modes and their cost", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\* `([a-z_]+)` [–-]", section, flags=re.M)
    assert documented == list(blocks.ESTIMATOR_MODES)


def test_json_output(tmp_path):
    out = tmp_path / "trace.json"
    run_cli(["run", "--model", "example1", "--horizon", "3",
             "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["model"] == "example1"
    assert len(payload["entries"]) == 3
    model = cb.build_example1()
    trace = cb.run(model, cb.ExpectationEstimator(), 3)
    assert payload["entries"][0]["info"] == trace.info_at(1).tolist()


def _plain_csv(plain: cb.PCRBTrace, r: int) -> str:
    """The run CSV of a trace with one row per step, formatted row by row."""
    lines = [",".join(["k"] + [f"J_{i}{j}" for i in range(r) for j in range(r)]
                      + [f"bound_{i}{j}" for i in range(r) for j in range(r)]
                      + [f"sqrt_bound_{i}" for i in range(r)])]
    for step, (info, bound, root) in enumerate(zip(plain.info, plain.bound, plain.root), 1):
        values = [*info.reshape(-1), *bound.reshape(-1), *root]
        lines.append(",".join([str(step)] + [repr(float(v)) for v in values]))
    return "\n".join(lines) + "\n"


def _plain_json(plain: cb.PCRBTrace, name: str, horizon: int) -> str:
    """The run JSON of a trace with one row per step, built row by row."""
    entries = [{"k": step, "time_index": plain.start + step, "info": info.tolist(),
                "bound": bound.tolist(), "sqrt_bound": root.tolist()}
               for step, (info, bound, root)
               in enumerate(zip(plain.info, plain.bound, plain.root), 1)]
    payload = {"model": name, "horizon": horizon, "seed": None, "entries": entries}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_run_output_matches_plain_formatter(tmp_path, example1):
    plain = run_plain(example1, cb.ExpectationEstimator(), 3000)
    csv_out, json_out = tmp_path / "run.csv", tmp_path / "run.json"
    base = ["run", "--model", "example1", "--horizon", "3000"]
    assert run_cli(base + ["--out", str(csv_out)]) == 0
    assert run_cli(base + ["--format", "json", "--out", str(json_out)]) == 0
    # Line lists, so a failure names its first line instead of diffing them all.
    assert csv_out.read_text().splitlines(True) == _plain_csv(plain, 2).splitlines(True)
    assert json_out.read_text().splitlines(True) == \
        _plain_json(plain, "example1", 3000).splitlines(True)


def test_missing_seed_for_sampling_is_config_error(capsys):
    code = run_cli(["run", "--model", "example2", "--horizon", "2"])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_missing_seed_is_found_before_any_draw(monkeypatch, capsys):
    monkeypatch.setattr(blocks, "_sample_states", lambda *a, **k: pytest.fail("drew states"))
    assert run_cli(["run", "--model", "example2", "--horizon", "3"]) == 1
    assert "estimator.seed" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["run", "--model", "example1", "--horizon", "40"],
    ["sensors", "--model", "example1", "--max-m", "3", "--horizon", "5"],
], ids=["run", "sensors"])
def test_monte_carlo_with_closed_forms_needs_no_seed(tmp_path, args):
    # Under monte_carlo, the default mode, every factor with a closed form
    # takes it; example1 samples nothing, so it needs no seed.
    explicit, default = tmp_path / "explicit.csv", tmp_path / "default.csv"
    assert run_cli(args + ["--mode", "monte_carlo", "--out", str(explicit)]) == 0
    assert run_cli(args + ["--out", str(default)]) == 0
    assert explicit.read_bytes() == default.read_bytes()


def test_default_mode_follows_closed_forms(tmp_path):
    # A custom model without closed-form measurement blocks is sampled when
    # no mode is given, exactly as the builtin one is.
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom", "factory": "corrbound.examples:build_example2"}
    }))
    base = ["run", "--horizon", "3", "--samples", "2000", "--seed", "7"]
    custom, builtin = tmp_path / "custom.csv", tmp_path / "builtin.csv"
    assert run_cli(base + ["--config", str(config), "--out", str(custom)]) == 0
    assert run_cli(base + ["--model", "example2", "--out", str(builtin)]) == 0
    assert custom.read_bytes() == builtin.read_bytes()


def test_malformed_config_names_field(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"model": {"kind": "builtin_example1"},
                                  "horizn": 10}))
    code = run_cli(["run", "--config", str(config)])
    assert code == 1
    assert "horizn" in capsys.readouterr().err


LINEAR_1D = {
    "kind": "linear_gaussian_ma", "state_dim": 1, "meas_dim": 1,
    "lags": {"l1": 0, "l2": 1, "l3": 0, "l4": 0},
    "transition_coeffs": [[[1.0]]], "process_cov": [[1.0]],
    "measurement_state_coeffs": [[[1.0]]], "measurement_cov": [[1.0]],
}

LINEAR_2D = {
    "kind": "linear_gaussian_ma", "state_dim": 2, "meas_dim": 2,
    "lags": {"l1": 0, "l2": 1, "l3": 0, "l4": 0},
    "transition_coeffs": [[[1.0, 0.0], [0.0, 1.0]]], "process_cov": [[1.0, 0.0], [0.0, 1.0]],
    "measurement_state_coeffs": [[[1.0, 0.0], [0.0, 1.0]]],
    "measurement_cov": [[1.0, 0.0], [0.0, 1.0]],
}


@pytest.mark.parametrize("command, extra, config, field", [
    ("sensors", ["--max-m", "0"], None, "--max-m"),
    ("sensors", [], {"sweep": {"max_sensors": "3"}}, "sweep.max_sensors"),
    ("sensors", [], {"sweep": {"target": "x"}}, "sweep.target"),
    ("run", [], {"estimator": {"samples": "many", "seed": 1}}, "estimator.samples"),
    ("run", [], {"estimator": {"workers": "two"}}, "estimator.workers"),
    ("run", [], {"estimator": {"seed": "x"}}, "estimator.seed"),
    ("run", ["--seed", "-1"], None, "estimator.seed"),
    ("oracle-verify", ["--max-k", "0"], None, "--max-k"),
    ("compare", [], {"baselines": 5}, "baselines"),
    ("compare", [], {"model": ["x"]}, "model"),
    ("compare", [], {"model": {"kind": "builtin_example1", "ma_coeff": "x"}},
     "model.ma_coeff"),
    ("compare", [], {"model": {**LINEAR_1D, "transition_coeffs": [[["x"]]]}},
     "model.transition_coeffs[0]"),
    ("run", [], {"model": {"kind": "builtin_example1", "ma_coeff": 1e100}},
     "model.ma_coeff"),
    ("compare", [], {"model": {"kind": "builtin_example1", "ma_coeff": 1e100}},
     "model.ma_coeff"),
    ("sensors", ["--target", "nan"], None, "sweep.target"),
    ("sensors", [], {"sweep": {"target": float("inf")}}, "sweep.target"),
    ("sensors", [], {"sweep": {"target": 10**400}}, "sweep.target"),
    ("oracle-verify", ["--tolerance", "1e-3"], None, "unrecognized arguments: --tolerance"),
    ("run", [], {"estimator": {"seed": True}}, "estimator.seed"),
    ("oracle-verify", [], {"estimator": {"samples": 0}}, "estimator.samples"),
    ("run", [], {"model": {**LINEAR_1D, "state_dim": True}}, "model.state_dim"),
    ("run", [], {"model": {**LINEAR_1D, "transition_coeffs": -1.5}},
     "model.transition_coeffs"),
    ("run", [], {"estimator": {"mode": "bad"}}, "mode 'bad'"),
    ("run", [], {"model": {**LINEAR_1D, "prior": -1.5}}, "model.prior"),
    ("run", [], {"model": {**LINEAR_1D, "prior": {"mean": "bad"}}}, "model.prior.mean"),
    ("run", [], {"model": {}}, "model.kind: required"),
    ("run", [], {"output": {"format": "xml"}}, "output.format"),
    ("compare", ["--baselines", "x"], None, "unknown baseline 'x'"),
    ("compare", ["--component", "2"], None, "component 2 out of range"),
    ("run", [], {"output": {"path": 5}}, "output.path"),
    # Each command takes only the flags it reads; compare and sensors write CSV.
    ("compare", ["--format", "json"], None, "--format"),
    ("sensors", [], {"output": {"format": "json"}}, "output.format"),
    ("run", ["--component", "0"], None, "--component"),
    # A covariance must be symmetric; it is not averaged with its transpose.
    ("run", [], {"model": {**LINEAR_2D, "process_cov": [[1.0, 0.5], [0.0, 1.0]]}},
     "model.process_cov"),
    ("run", [], {"model": {**LINEAR_2D, "measurement_cov": [[4.0, 3.0], [-3.0, 4.0]]}},
     "model.measurement_cov"),
    ("run", [], {"model": {**LINEAR_2D, "prior": {"cov": [[1.0, 1e-9], [0.0, 1.0]]}}},
     "model.prior.cov"),
    ("run", [], {"estimator": {"mode": "analytic"}}, "estimator.mode 'analytic'"),
    ("run", [], {"estimator": 5}, "config.estimator: expected an object"),
    ("run", [], {"model": {**LINEAR_2D, "process_cov": [[1.0, 0.0, 0.0]]}},
     "model.process_cov: expected a 2x2 matrix (row-major)"),
    ("run", [], {"model": {**LINEAR_1D, "lags": 5}}, "model.lags: expected an object"),
])
def test_bad_field_is_config_error(tmp_path, capsys, command, extra, config, field):
    args = [command, *extra, "--horizon", "3"]
    if config is None:
        args += ["--model", "example1"]
    else:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"kind": "builtin_example1"}, **config}))
        args += ["--config", str(path)]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert field in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"),
    ("{bad", "is not valid JSON"),
    ("[1, 2]", "expected a JSON object"),
], ids=["missing", "not_json", "not_object"])
def test_unusable_config_file_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert run_cli(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


def test_model_error_exit_code(tmp_path, capsys):
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom", "factory": "corrbound.examples:not_there"}
    }))
    code = run_cli(["run", "--config", str(config)])
    assert code == 2
    assert "factory" in capsys.readouterr().err


def test_custom_factory_of_no_model_is_model_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(examples, "not_a_model", lambda: 5, raising=False)
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom", "factory": "corrbound.examples:not_a_model"}
    }))
    assert run_cli(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "model error: custom factory did not return a SystemModel\n")


def test_run_notes_redrawn_samples(tmp_path, capsys, monkeypatch):
    # Flags about 30% of all states, redraws included, at every step.
    singular = lambda s: s[:, 0] % 1.0 < 0.3  # noqa: E731
    assert _run_custom(tmp_path, monkeypatch, cb.build_example2,
                       singular_states=singular) == 0
    model = dataclasses.replace(cb.build_example2(), singular_states=singular)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=100, seed=0)
    redrawn = cb.run(model, est, 3).mc_resampled
    assert redrawn > 0
    assert capsys.readouterr().err == (
        f"note: {redrawn} sample(s) redrawn near a measurement singularity\n")


def test_closed_form_model_needs_no_sampling_callables(tmp_path, capsys, monkeypatch):
    # A model of the required fields and its closed forms, with no
    # simulator, log-density or state sampler, serves every command that
    # reads only closed forms, byte for byte as the builtin it copies.
    def factory():
        full = cb.build_example1()
        return cb.SystemModel(
            name=full.name, state_dim=full.state_dim, meas_dim=full.meas_dim,
            profile=full.profile, prior=full.prior, analytic_b=full.analytic_b,
            analytic_c=full.analytic_c, linear=full.linear, ar_model=full.ar_model)

    monkeypatch.setattr(examples, "closed_form_only", factory, raising=False)
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom", "factory": "corrbound.examples:closed_form_only"}}))
    for command in ("run", "compare", "oracle-verify"):
        outputs = []
        for source in (["--config", str(config)], ["--model", "example1"]):
            assert run_cli([command, *source, "--horizon", "24"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1], command


def test_jacobian_model_without_state_sampler_is_model_error(tmp_path, capsys, monkeypatch):
    # The Jacobian curvature path draws states through sample_states; a
    # custom model with a measurement Jacobian but no state sampler is a
    # model error, reported before any sampling.
    def factory():
        return dataclasses.replace(cb.build_example2(), sample_states=None)

    monkeypatch.setattr(examples, "example2_without_state_sampler", factory, raising=False)
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom",
                  "factory": "corrbound.examples:example2_without_state_sampler"},
        "estimator": {"mode": "monte_carlo", "samples": 100, "seed": 0},
    }))
    assert run_cli(["run", "--config", str(config), "--horizon", "3"]) == 2
    assert "sample_states" in capsys.readouterr().err


def test_sample_major_jacobian_is_model_error(tmp_path, capsys, monkeypatch):
    # meas_jacobian returns entry-major (meas_dim, state_dim, n); a custom
    # model still on the sample-major (n, meas_dim, state_dim) layout is
    # rejected rather than misread.
    def factory():
        base = cb.build_example2()
        return dataclasses.replace(
            base, meas_jacobian=lambda s: base.meas_jacobian(s).transpose(2, 0, 1))

    monkeypatch.setattr(examples, "example2_sample_major_jacobian", factory, raising=False)
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom",
                  "factory": "corrbound.examples:example2_sample_major_jacobian"},
        "estimator": {"mode": "monte_carlo", "samples": 100, "seed": 0},
    }))
    assert run_cli(["run", "--config", str(config), "--horizon", "3"]) == 2
    err = capsys.readouterr().err
    assert "meas_jacobian" in err
    # One call per sample block takes its 100 samples at each of the 3 steps.
    assert "(meas_dim, state_dim, n) = (2, 4, 300)" in err


def _run_custom(tmp_path, monkeypatch, build, *, mode="monte_carlo", command=("run",),
                seed=0, **changes):
    """``command`` on ``build()`` with ``changes`` applied, through a custom
    factory, sampling under ``mode`` with ``seed`` (None: no seed)."""
    monkeypatch.setattr(examples, "malformed_model",
                        lambda: dataclasses.replace(build(), **changes), raising=False)
    config = tmp_path / "custom.json"
    estimator = {"mode": mode, "samples": 100}
    if seed is not None:
        estimator["seed"] = seed
    config.write_text(json.dumps({
        "model": {"kind": "custom", "factory": "corrbound.examples:malformed_model"},
        "estimator": estimator,
    }))
    return run_cli([*command, "--config", str(config), "--horizon", "3",
                    "--out", str(tmp_path / "out.csv")])


# (model builder, mode, fields set to None, the field the error names).  A
# factor's curvature source needs its own callables: the Jacobian path its
# noise information and state sampler, FD-MC the simulator and that
# factor's log-density.  example2 has neither FD-MC callable, so every
# factor that falls to FD-MC (under finite_difference_mc, or without a
# Jacobian or a closed form) names the simulator.  Each case runs with a
# seed, and again as "<case>_no_seed" without one.
MISSING_CAPABILITIES = {
    "jacobian_without_noise_information": (
        cb.build_example2, "monte_carlo", ("meas_noise_information",),
        "meas_noise_information"),
    "example2_fdmc": (cb.build_example2, "finite_difference_mc", (), "simulate"),
    "example2_no_jacobian": (cb.build_example2, "monte_carlo", ("meas_jacobian",), "simulate"),
    "example2_no_closed_b": (cb.build_example2, "monte_carlo", ("analytic_b",), "simulate"),
    "fdmc_without_transition_density": (
        cb.build_example1, "finite_difference_mc", ("trans_logpdf",), "trans_logpdf"),
    "fdmc_without_measurement_density": (
        cb.build_example1, "finite_difference_mc", ("meas_logpdf",), "meas_logpdf"),
}


@pytest.mark.parametrize("case", [*MISSING_CAPABILITIES,
                                  *(f"{case}_no_seed" for case in MISSING_CAPABILITIES)])
def test_missing_capability_is_model_error(tmp_path, capsys, monkeypatch, case):
    # Checked when the provider picks each factor's source, before the seed
    # check and before any draw.
    seed = None if case.endswith("_no_seed") else 0
    build, mode, missing, field = MISSING_CAPABILITIES[case.removesuffix("_no_seed")]
    drawn = []
    monkeypatch.setattr(blocks, "_substream", lambda *a: drawn.append(a))
    assert _run_custom(tmp_path, monkeypatch, build, mode=mode, seed=seed,
                       **dict.fromkeys(missing)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"model error: model '{build().name}': {field} is required")
    assert drawn == []


@pytest.mark.parametrize("field, value", [
    ("meas_noise_information", np.eye(3)),
    ("meas_noise_information", np.diag([np.nan, 1.0])),
    ("analytic_b", np.eye(4)),
    ("analytic_b", lambda k: np.eye(12)),  # a closed form of a time index
    ("analytic_b", "12x12"),
    ("meas_noise_information", [[1.0], [1.0, 2.0]]),
], ids=["lambda_3x3", "lambda_nan", "b_shape", "b_callable", "b_text", "lambda_ragged"])
def test_malformed_model_data_is_model_error(tmp_path, capsys, monkeypatch, field, value):
    # Checked once, when the model is built, before any block is made.
    assert _run_custom(tmp_path, monkeypatch, cb.build_example2, **{field: value}) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error: model 'example2': ")
    assert field in err


def _example1_with(view, **arrays):
    """A builder of example1 with ``arrays`` replaced in its ``view``."""
    def build():
        model = cb.build_example1()
        return dataclasses.replace(
            model, **{view: dataclasses.replace(getattr(model, view), **arrays)})
    return build


@pytest.mark.parametrize("baseline", ["i", "a", "p"])
@pytest.mark.parametrize("view, field, value", [
    ("linear", "transition", np.eye(3)),
    ("ar_model", "meas_white_cov", np.eye(3)),
    ("linear", "measurement", "2x2"),
    ("linear", "process_marginal", np.diag([np.nan, 1.0])),
], ids=["transition_3x3", "ar_meas_3x3", "measurement_text", "process_nan"])
def test_malformed_linear_view_is_model_error(tmp_path, capsys, monkeypatch,
                                              view, field, value, baseline):
    # The baselines' linear view and AR stand-in are checked when the model
    # is built, whichever baseline would read them.
    build = _example1_with(view, **{field: value})
    assert _run_custom(tmp_path, monkeypatch, build,
                       command=("compare", "--baselines", baseline)) == 2
    assert capsys.readouterr().err.startswith(
        f"model error: model 'example1': {view}.{field}")


@pytest.mark.parametrize("field", ["trans_logpdf", "meas_logpdf"])
def test_scalar_log_density_is_model_error(tmp_path, capsys, monkeypatch, field):
    # A log-density returns one value per sample; a scalar is rejected.
    assert _run_custom(tmp_path, monkeypatch, cb.build_example1, mode="finite_difference_mc",
                       **{field: lambda *args: 0.0}) == 2
    assert capsys.readouterr().err.startswith(
        f"model error: model 'example1': {field} returned shape (), expected (n,) = (100,)")


def _batch_with_extra_sample(simulate):
    return lambda horizon, count, rng: simulate(horizon, count + 1, rng)


def _batch_one_time_short(simulate):
    def short(horizon, count, rng):
        batch = simulate(horizon, count, rng)
        return dataclasses.replace(batch, states=batch.states[:, :-1])
    return short


def _batch_as_tuple(simulate):
    def plain(horizon, count, rng):
        batch = simulate(horizon, count, rng)
        return batch.states, batch.measurements, batch.trans_shift, batch.meas_shift
    return plain


@pytest.mark.parametrize("wrap, message", [
    # example1 starts at time 2, so its FD-MC draw runs to horizon 3.
    (_batch_with_extra_sample, "simulate states returned shape (101, 4, 2), "
                               "expected (count, horizon + 1, state_dim) = (100, 4, 2)"),
    (_batch_one_time_short, "simulate states returned shape (100, 3, 2), "
                            "expected (count, horizon + 1, state_dim) = (100, 4, 2)"),
    (_batch_as_tuple, "simulate returned tuple, expected a TrajectoryBatch"),
], ids=["extra_sample", "one_time_short", "tuple"])
def test_malformed_simulate_batch_is_model_error(tmp_path, capsys, monkeypatch, wrap, message):
    # FD-MC checks every batch it draws before it reads one.
    simulate = wrap(cb.build_example1().simulate)
    assert _run_custom(tmp_path, monkeypatch, cb.build_example1, mode="finite_difference_mc",
                       simulate=simulate) == 2
    assert capsys.readouterr().err == f"model error: model 'example1': {message}\n"


def test_non_finite_closed_form_is_numerical_error(tmp_path, capsys, monkeypatch):
    grid = np.array(cb.build_example1().analytic_c)
    grid[0, 1] = np.nan
    assert _run_custom(tmp_path, monkeypatch, cb.build_example1, analytic_c=grid) == 3
    assert "analytic_c (measurement blocks) contains non-finite" in capsys.readouterr().err


def test_example2_run_matches_reference(tmp_path):
    # The sampled path: a change of seed stream moves every column at the
    # percent level at 2000 samples, while reordered sums move it by about
    # 1e-13 of the column's scale.
    reference = Path(__file__).resolve().parent / "data" / "e2_run_h10_s2000_seed7.csv"
    out = tmp_path / "e2.csv"
    assert run_cli(["run", "--model", "example2", "--samples", "2000", "--horizon", "10",
                    "--seed", "7", "--workers", "1", "--out", str(out)]) == 0
    expected_lines = reference.read_text().splitlines()
    got_lines = out.read_text().splitlines()
    assert got_lines[0] == expected_lines[0]
    expected = np.loadtxt(reference, delimiter=",", skiprows=1)
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    assert got.shape == expected.shape == (10, 37)
    scale = np.max(np.abs(expected), axis=0)
    assert np.all(np.abs(got - expected) <= 1e-11 * scale)


@pytest.mark.parametrize("ma_coeff", [1.0, 1.5, 1e10, 1e77, MA_COEFF_MAX])
def test_nonstationary_ar_coeff_is_model_error(tmp_path, capsys, ma_coeff):
    # The AR(1) baseline has no stationary variance for |coeff| >= 1; the
    # exact recursion does not need one, so `run` still accepts the model.
    path = tmp_path / "ma.json"
    path.write_text(json.dumps({"model": {"kind": "builtin_example1",
                                          "ma_coeff": ma_coeff}}))
    assert run_cli(["compare", "--config", str(path), "--horizon", "3",
                    "--out", str(tmp_path / "cmp.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error:")
    assert "AR process coefficient" in err and "|coeff| < 1" in err
    assert run_cli(["run", "--config", str(path), "--horizon", "3",
                    "--out", str(tmp_path / "run.csv")]) == 0


def test_compare_refuses_a_baseline_before_sampling(tmp_path, capsys, monkeypatch):
    # example2 has no linear view, so every baseline refuses it; the
    # closed-form baselines run first, and the unified run never draws.
    draws = []
    for wrapper in ("_sample_states", "_simulate"):
        monkeypatch.setattr(blocks, wrapper, lambda *a, **k: draws.append(a))
    out = tmp_path / "cmp.csv"
    for seed in (["--seed", "1"], []):
        assert run_cli(["compare", "--model", "example2", "--horizon", "5",
                        "--samples", "2000", *seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("model error:")
    assert draws == []
    assert not out.exists()


def test_ma_coeff_limit_is_largest_with_finite_fourth_power():
    assert np.isfinite(MA_COEFF_MAX**4)
    with pytest.raises(OverflowError):
        np.nextafter(MA_COEFF_MAX, np.inf).item() ** 4


def test_compare_matches_reference_prefix(tmp_path):
    # The whole tests-side reference, so every row the compare emits from a
    # repeated step is checked byte for byte.  The benchmark's reference may
    # differ from it by rounding only, within the benchmark's own 1e-12.
    data = Path(__file__).resolve().parent / "data" / "e1_compare_h3000.csv.gz"
    with gzip.open(data, "rb") as fh:
        expected = fh.read()
    assert expected.count(b"\n") == 3001
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--model", "example1", "--horizon", "3000",
                    "--out", str(out)]) == 0
    # Line lists, so a failure names its first row instead of diffing 3000.
    assert out.read_bytes().splitlines(True) == expected.splitlines(True)

    bench = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" \
        / "e1_compare_h3000.csv.gz"
    with gzip.open(bench, "rt", encoding="utf-8") as fh:
        bench_lines = fh.read().splitlines()
    got_lines = out.read_text().splitlines()
    assert got_lines[0] == bench_lines[0]
    got = np.loadtxt(got_lines[1:], delimiter=",")
    want = np.loadtxt(bench_lines[1:], delimiter=",")
    assert got.shape == want.shape == (3000, 5)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_compare_columns(tmp_path):
    out = tmp_path / "cmp.csv"
    run_cli(["compare", "--model", "example1", "--horizon", "5", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,pcrb_t,pcrb_i,pcrb_a,pcrb_p"
    assert len(lines) == 6

    run_cli(["compare", "--model", "example1", "--horizon", "5",
             "--baselines", "i", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,pcrb_t,pcrb_i"


def test_compare_independent_model_columns_equal(tmp_path):
    config = tmp_path / "indep.json"
    config.write_text(json.dumps({
        "model": {
            "kind": "linear_gaussian_ma",
            "state_dim": 1,
            "meas_dim": 1,
            "lags": {"l1": 0, "l2": 0, "l3": 0, "l4": 0},
            "transition_coeffs": [[[1.0]]],
            "process_cov": [[1.0]],
            "measurement_state_coeffs": [[[1.0]]],
            "measurement_cov": [[1.0]],
            "prior": {"mean": [0.0], "cov": [[1.0]]},
        },
        "horizon": 12,
        "baselines": ["i", "p"],
    }))
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    for line in lines[1:]:
        _, *vals = line.split(",")
        vals = [float(v) for v in vals]
        assert max(vals) - min(vals) < 1e-12 * max(vals)


def test_oracle_verify_ok(capsys):
    assert run_cli(["oracle-verify", "--model", "example1", "--horizon", "8"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "max_rel_dev" in out


def test_oracle_verify_detects_corruption(monkeypatch, capsys):
    import corrbound.blocks as blocks_mod
    import corrbound.recursion as rec_mod
    original = blocks_mod.factor_frame

    def corrupted(b, c, profile):
        frame = original(b, c, profile)
        r = b.shape[0] // (profile.l2_eff + 1)
        frame[-r:, -r:] *= 1.01
        return frame

    # The recursion sees a corrupted new-state block, the reference does not.
    monkeypatch.setattr(rec_mod, "factor_frame", corrupted)
    code = run_cli(["oracle-verify", "--model", "example1", "--horizon", "6"])
    assert code != 0
    assert "FAIL" in capsys.readouterr().err


def test_oracle_verify_long_horizon_unclamped(capsys):
    # example1 starts at time index 2, so 500 steps end at 502.
    assert run_cli(["oracle-verify", "--model", "example1", "--horizon", "500"]) == 0
    captured = capsys.readouterr()
    times = [int(line.split()[0][2:]) for line in captured.out.splitlines()
             if line.startswith("k=")]
    assert times == list(range(3, 503))
    assert "OK" in captured.out
    assert captured.err == ""


def test_sensors_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sensors", "--model", "example1", "--max-m", "4",
                    "--horizon", "10", "--target", "9.0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sensors,avg_bound"
    assert len(lines) == 5
    assert "sensor(s) suffice" in capsys.readouterr().out


def test_sensors_unachievable_target(capsys):
    assert run_cli(["sensors", "--model", "example1", "--max-m", "2", "--horizon", "5",
                    "--target", "0.001"]) == 0
    assert "target 0.001: unachievable with up to 2 sensors" in capsys.readouterr().out


def test_sensors_component_matches_sweep(tmp_path, example1):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sensors", "--model", "example1", "--component", "1", "--max-m", "3",
                    "--horizon", "10", "--out", str(out)]) == 0
    est = cb.ExpectationEstimator()
    avg = cb.sweep(example1, 3, horizon=10, component=1, est=est)
    assert not np.array_equal(avg, cb.sweep(example1, 3, horizon=10, component=0, est=est))
    assert out.read_text().splitlines()[1:] == \
        [f"{m},{v!r}" for m, v in enumerate(avg.tolist(), 1)]


def test_no_model_is_config_error(capsys):
    assert run_cli(["run", "--horizon", "3"]) == 1
    assert "model" in capsys.readouterr().err


def test_unknown_builtin_is_config_error(capsys):
    assert run_cli(["run", "--model", "example9"]) == 1
    assert "example9" in capsys.readouterr().err


@pytest.mark.parametrize("extra, flag", [
    (["--horizon", "abc"], "--horizon"),
    (["--bogus", "1"], "--bogus"),
    (["--mode", "foo"], "--mode"),
    (["--mode", "analytic"], "--mode"),  # closed forms need no mode, only no seed
])
def test_usage_error_is_config_error(capsys, extra, flag):
    assert run_cli(["run", "--model", "example1"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and flag in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--help"])
    assert exc.value.code == 0
    assert "--horizon" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_is_config_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
    assert run_cli(["run", "--model", "example1", "--horizon", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output file")
    assert str(out) in err


def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch):
    # The output path is checked when the config is built, so a sweep whose
    # file cannot be written never starts sampling.
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the output path was checked")

    monkeypatch.setattr(recursion, "BlockProvider", no_work)
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(["sensors", "--model", "example2", "--max-m", "8", "--samples", "1000",
                    "--horizon", "40", "--seed", "7", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output file")
    assert str(out) in err


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter on this package."""
    src = str(Path(cb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_command_loads_scipy(tmp_path):
    # scipy costs about as much start-up time as numpy itself, and its own
    # OpenBLAS about 21 MB of peak memory, so every command stays
    # numpy-only, the oracle included.
    loaded = _fresh_interpreter(f"""
        import sys
        from corrbound import cli
        out = {str(tmp_path / "out.csv")!r}
        for argv in (["run", "--horizon", "5"], ["compare", "--horizon", "5"],
                     ["sensors", "--horizon", "5", "--max-m", "2"]):
            assert cli.main(argv + ["--model", "example1", "--out", out]) == 0, argv
        assert cli.main(["oracle-verify", "--model", "example1", "--horizon", "24"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert "worst deviation" in loaded
    assert loaded.splitlines()[-1] == "[]"


def test_only_sampling_loads_numpy_random_and_no_command_loads_a_pool(tmp_path):
    # numpy.random (which imports hashlib and OpenSSL) costs about 6 MB of
    # peak memory.  A seedless example1 command samples nothing and never
    # loads it; a run that samples loads it.  No command loads the thread
    # pool's concurrent.futures (with logging, 0.6 MB more): on two workers
    # the calling thread samples beside one thread of its own.
    out = str(tmp_path / "out.csv")
    loaded = _fresh_interpreter(f"""
        import sys
        from corrbound import cli
        for argv in (["run", "--horizon", "5"], ["compare", "--horizon", "5"],
                     ["sensors", "--horizon", "5", "--max-m", "2"]):
            assert cli.main(argv + ["--model", "example1", "--out", {out!r}]) == 0, argv
        assert cli.main(["oracle-verify", "--model", "example1", "--horizon", "24"]) == 0
        print(["numpy.random" in sys.modules, "concurrent.futures" in sys.modules])
    """)
    assert "worst deviation" in loaded
    assert loaded.splitlines()[-1] == "[False, False]"
    for workers in ("1", "2"):
        loaded = _fresh_interpreter(f"""
            import os, sys
            os.sched_getaffinity = lambda pid: {{0, 1}}  # two CPUs on any host
            from corrbound import cli
            assert cli.main(["run", "--model", "example2", "--horizon", "5",
                             "--samples", "2000", "--seed", "1", "--workers", {workers!r},
                             "--out", {out!r}]) == 0
            print(["numpy.random" in sys.modules, "concurrent.futures" in sys.modules])
        """)
        assert loaded.splitlines()[-1] == "[True, False]"


def test_oracle_runs_with_scipy_blocked(monkeypatch, capsys):
    # With scipy unimportable, the oracle still verifies: its factorization
    # and the joint's assembly are numpy-only.
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    model = cb.build_example1()
    assert cli.main(["oracle-verify", "--model", "example1", "--horizon", "5"]) == 0
    assert "OK: recursion matches" in capsys.readouterr().out
    est = cb.ExpectationEstimator()
    k = model.start_time + 2
    seq = cb.information_sequence(model, est, k)
    assert sorted(seq) == list(range(model.start_time, k + 1))
    assert all(np.all(np.isfinite(info)) for info in seq.values())
    joint = cb.build_joint(model, est, k)
    assert joint.shape[1] == (k + 1) * model.state_dim
    assert np.all(np.isfinite(joint))
