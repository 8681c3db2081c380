import gzip
import json
from pathlib import Path

import numpy as np
import pytest

import corrbound as cb
from corrbound import cli
from corrbound.examples import MA_COEFF_MAX


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
    for entry, line in zip(trace.entries, lines[1:]):
        fields = line.split(",")
        parsed = np.array([float(v) for v in fields[1:5]]).reshape(2, 2)
        assert np.array_equal(parsed, entry.info)


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


def test_json_output(tmp_path):
    out = tmp_path / "trace.json"
    run_cli(["run", "--model", "example1", "--horizon", "3",
             "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["model"] == "example1"
    assert len(payload["entries"]) == 3
    model = cb.build_example1()
    trace = cb.run(model, cb.ExpectationEstimator(), 3)
    assert payload["entries"][0]["info"] == trace.entries[0].info.tolist()


def test_missing_seed_for_sampling_is_config_error(capsys):
    code = run_cli(["run", "--model", "example2", "--horizon", "2"])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_malformed_config_names_field(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"model": {"kind": "builtin_example1"},
                                  "horizn": 10}))
    code = run_cli(["run", "--config", str(config)])
    assert code == 1
    assert "horizn" in capsys.readouterr().err


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
    ("compare", [], {"model": {
        "kind": "linear_gaussian_ma", "state_dim": 1, "meas_dim": 1,
        "lags": {"l1": 0, "l2": 1, "l3": 0, "l4": 0},
        "transition_coeffs": [[["x"]]], "process_cov": [[1.0]],
        "measurement_state_coeffs": [[[1.0]]], "measurement_cov": [[1.0]],
    }}, "model.transition_coeffs[0]"),
    ("run", [], {"model": {"kind": "builtin_example1", "ma_coeff": 1e100}},
     "model.ma_coeff"),
    ("compare", [], {"model": {"kind": "builtin_example1", "ma_coeff": 1e100}},
     "model.ma_coeff"),
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


def test_model_error_exit_code(tmp_path, capsys):
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({
        "model": {"kind": "custom", "factory": "corrbound.examples:not_there"}
    }))
    code = run_cli(["run", "--config", str(config)])
    assert code == 2
    assert "factory" in capsys.readouterr().err


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


def test_ma_coeff_limit_is_largest_with_finite_fourth_power():
    assert np.isfinite(MA_COEFF_MAX**4)
    with pytest.raises(OverflowError):
        np.nextafter(MA_COEFF_MAX, np.inf).item() ** 4


def test_compare_matches_reference_prefix(tmp_path):
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" \
        / "e1_compare_h3000.csv.gz"
    with gzip.open(reference, "rb") as fh:
        expected = b"".join(fh.readline() for _ in range(301))
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--model", "example1", "--horizon", "300",
                    "--out", str(out)]) == 0
    assert out.read_bytes() == expected


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


def test_oracle_verify_notes_clamped_horizon(capsys):
    # example1 starts at time index 2, so 24 steps would end at 26.
    assert run_cli(["oracle-verify", "--model", "example1", "--horizon", "24"]) == 0
    captured = capsys.readouterr()
    assert "k=24 " in captured.out and "k=25 " not in captured.out
    notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1
    assert "24" in notes[0] and "26" in notes[0]


def test_oracle_verify_unclamped_has_no_note(capsys):
    assert run_cli(["oracle-verify", "--model", "example1", "--horizon", "8"]) == 0
    captured = capsys.readouterr()
    assert "k=10 " in captured.out
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


def test_no_model_is_config_error(capsys):
    assert run_cli(["run", "--horizon", "3"]) == 1
    assert "model" in capsys.readouterr().err


def test_unknown_builtin_is_config_error(capsys):
    assert run_cli(["run", "--model", "example9"]) == 1
    assert "example9" in capsys.readouterr().err
