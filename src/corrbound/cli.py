"""Command-line interface: runs, baseline comparisons, verification, sweeps.

Every command is a deterministic function of its configuration and seed;
output files contain full-precision decimal values that round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import baselines as _baselines
from . import oracle as _oracle
from .blocks import CHUNK_SIZE, ESTIMATOR_MODES, ExpectationEstimator
from .errors import ConfigError, ModelBuildError, NumericalError
from .models import SystemModel, model_from_config, require_keys
from .recursion import PCRBTrace, run
from .selection import min_sensors, sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_NUMERICAL = 3

_BUILTIN_ALIASES = {
    "example1": {"kind": "builtin_example1"},
    "example2": {"kind": "builtin_example2"},
}

_TOP_LEVEL_KEYS = {
    "model", "horizon", "estimator", "baselines", "output", "component",
    "sweep",
}
_ESTIMATOR_KEYS = {"mode", "samples", "seed", "workers"}
_OUTPUT_KEYS = {"path", "format"}
_SWEEP_KEYS = {"max_sensors", "target"}


@dataclass
class RunConfig:
    model: SystemModel
    horizon: int = 40
    estimator: ExpectationEstimator = ExpectationEstimator()
    baselines: tuple[str, ...] = ()
    out_path: str | None = None
    out_format: str = "csv"
    component: int = 0
    max_sensors: int = 16
    target: float | None = None


def _fmt(value: float) -> str:
    return repr(float(value))


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    require_keys(data, _TOP_LEVEL_KEYS, "config")
    return data


def _int_field(value, field: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{field}: expected an integer >= {minimum}, got {value!r}")
    return value


def _build_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data = _load_config_file(args.config)

    model_config = data.get("model")
    if getattr(args, "model", None):
        alias = _BUILTIN_ALIASES.get(args.model)
        if alias is None:
            raise ConfigError(
                f"--model: unknown builtin {args.model!r} "
                f"(choose from {sorted(_BUILTIN_ALIASES)})"
            )
        model_config = dict(alias)
    if model_config is None:
        raise ConfigError("no model given: pass --model or a config file with a 'model' entry")
    if not isinstance(model_config, dict):
        raise ConfigError(f"model: expected an object, got {model_config!r}")

    est_data = data.get("estimator", {})
    require_keys(est_data, _ESTIMATOR_KEYS, "config.estimator")
    mode = est_data.get("mode")
    samples = est_data.get("samples", 10_000)
    seed = est_data.get("seed")
    workers = est_data.get("workers", 1)
    if getattr(args, "mode", None):
        mode = args.mode
    if getattr(args, "samples", None) is not None:
        samples = args.samples
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if getattr(args, "workers", None) is not None:
        workers = args.workers
    samples = _int_field(samples, "estimator.samples")
    if seed is not None:
        _int_field(seed, "estimator.seed", minimum=0)
    workers = _int_field(workers, "estimator.workers")

    out_data = data.get("output", {})
    require_keys(out_data, _OUTPUT_KEYS, "config.output")
    out_path = out_data.get("path")
    out_format = out_data.get("format", "csv")
    if getattr(args, "out", None):
        out_path = args.out
    if getattr(args, "format", None):
        out_format = args.format
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected 'csv' or 'json', got {out_format!r}")

    horizon = data.get("horizon", 40)
    if getattr(args, "horizon", None) is not None:
        horizon = args.horizon
    _int_field(horizon, "horizon")
    if getattr(args, "max_k", None) is not None:
        _int_field(args.max_k, "--max-k")
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ConfigError(f"--tolerance: expected a finite number >= 0, got {tolerance!r}")

    baseline_raw = data.get("baselines", [])
    if getattr(args, "baselines", None):
        baseline_raw = [b.strip() for b in args.baselines.split(",") if b.strip()]
    if not isinstance(baseline_raw, list):
        raise ConfigError(f"baselines: expected a list of names, got {baseline_raw!r}")
    for b in baseline_raw:
        if not isinstance(b, str) or b not in _baselines.BASELINES:
            raise ConfigError(
                f"baselines: unknown baseline {b!r} "
                f"(choose from {sorted(_baselines.BASELINES)})"
            )

    component = data.get("component", 0)
    if getattr(args, "component", None) is not None:
        component = args.component
    _int_field(component, "component", minimum=0)

    sweep_data = data.get("sweep", {})
    require_keys(sweep_data, _SWEEP_KEYS, "config.sweep")
    max_sensors = sweep_data.get("max_sensors", 16)
    target = sweep_data.get("target")
    if getattr(args, "max_m", None) is not None:
        max_sensors = args.max_m
    if getattr(args, "target", None) is not None:
        target = args.target
    _int_field(max_sensors, "sweep.max_sensors (--max-m)")
    if target is not None and (not isinstance(target, (int, float))
                               or isinstance(target, bool)
                               or not abs(target) <= sys.float_info.max):
        raise ConfigError(f"sweep.target: expected a finite number, got {target!r}")

    model = model_from_config(model_config)
    if component >= model.state_dim:
        raise ConfigError(
            f"component {component} out of range for state dim {model.state_dim}"
        )
    if mode is None:
        # Without closed forms for both factors the provider has to sample.
        closed = model.analytic_b is not None and model.analytic_c is not None
        mode = "analytic" if closed else "monte_carlo"
    estimator = ExpectationEstimator(mode=mode, sample_count=samples,
                                     seed=0 if seed is None else seed, workers=workers)
    if mode != "analytic" and seed is None:
        raise ConfigError("estimator.seed: required whenever sampling is active")

    return RunConfig(
        model=model,
        horizon=horizon,
        estimator=estimator,
        baselines=tuple(baseline_raw),
        out_path=out_path,
        out_format=out_format,
        component=component,
        max_sensors=max_sensors,
        target=target,
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc}")


def _trace_csv(trace: PCRBTrace, r: int) -> str:
    header = ["k"]
    header += [f"J_{i}{j}" for i in range(r) for j in range(r)]
    header += [f"bound_{i}{j}" for i in range(r) for j in range(r)]
    header += [f"sqrt_bound_{i}" for i in range(r)]
    # Repeated steps share a row, so each distinct row is formatted once.
    texts = [",".join([_fmt(v) for a in row for v in a.reshape(-1)]) for row in trace.rows]
    lines = [",".join(header)]
    lines += [f"{s},{texts[i]}" for s, i in enumerate(trace.index.tolist(), 1)]
    return "\n".join(lines) + "\n"


def _trace_json(trace: PCRBTrace, model: SystemModel, config: RunConfig) -> str:
    rows = [{"info": info.tolist(), "bound": bound.tolist(), "sqrt_bound": root.tolist()}
            for info, bound, root in trace.rows]
    payload = {
        "model": model.name,
        "horizon": config.horizon,
        "seed": config.estimator.seed,
        "entries": [{"k": s, "time_index": trace.start + s, **rows[i]}
                    for s, i in enumerate(trace.index.tolist(), 1)],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    model = config.model
    trace = run(model, config.estimator, config.horizon)
    if config.out_format == "csv":
        _write_text(config.out_path, _trace_csv(trace, model.state_dim))
    else:
        _write_text(config.out_path, _trace_json(trace, model, config))
    if trace.mc_resampled:
        print(f"note: {trace.mc_resampled} sample(s) redrawn near a "
              "measurement singularity", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = _build_config(args)
    names = dict.fromkeys(config.baselines or ("i", "a", "p"))  # one column per name
    model = config.model
    traces = [run(model, config.estimator, config.horizon)]
    traces += [_baselines.BASELINES[name](model, config.horizon) for name in names]
    header = ["k", "pcrb_t"] + [_baselines.BASELINE_LABELS[name] for name in names]
    # A step's values are fixed by its traces' row indices, so each distinct
    # tuple of rows is formatted once.
    texts: dict[tuple[int, ...], str] = {}
    lines = [",".join(header)]
    for k, rows in enumerate(zip(*(t.index.tolist() for t in traces)), 1):
        text = texts.get(rows)
        if text is None:
            text = texts[rows] = ",".join(
                _fmt(t.rows[i][2][config.component]) for t, i in zip(traces, rows))
        lines.append(f"{k},{text}")
    _write_text(config.out_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    config = _build_config(args)
    model = config.model
    depth = min(config.horizon, args.max_k or config.horizon)
    k_max = model.start_time + depth
    deviations = _oracle.verify_recursion(model, config.estimator, k_max)
    worst = 0.0
    for k in sorted(deviations):
        print(f"k={k} max_rel_dev={deviations[k]:.3e}")
        worst = max(worst, deviations[k])
    tolerance = args.tolerance
    print(f"worst deviation {worst:.3e} (tolerance {tolerance:.1e})")
    if worst > tolerance:
        print("FAIL: recursion deviates from the full-horizon reference",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print("OK: recursion matches the full-horizon reference")
    return EXIT_OK


def cmd_sensors(args: argparse.Namespace) -> int:
    config = _build_config(args)
    model = config.model
    avg = sweep(
        model,
        config.max_sensors,
        horizon=config.horizon,
        component=config.component,
        est=config.estimator,
    )
    lines = ["sensors,avg_bound"] + [f"{m},{_fmt(v)}" for m, v in enumerate(avg, 1)]
    body = "\n".join(lines) + "\n"
    _write_text(config.out_path, body)
    if config.target is not None:
        needed = min_sensors(avg, config.target)
        if needed is None:
            print(f"target {config.target:g}: unachievable with up to "
                  f"{config.max_sensors} sensors")
        else:
            print(f"target {config.target:g}: {needed} sensor(s) suffice")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit
    1); its subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrbound",
        description="Recursive estimation-error lower bounds under "
                    "temporally correlated noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_output: bool = True):
        p.add_argument("--model", help="builtin model name (example1, example2)")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--horizon", type=int, help="number of recursion steps")
        p.add_argument("--mode", choices=ESTIMATOR_MODES, help="expectation estimator mode")
        p.add_argument("--samples", type=int, help="Monte-Carlo sample count")
        p.add_argument("--seed", type=int, help="Monte-Carlo seed")
        p.add_argument("--workers", type=int,
                       help=f"worker threads for sampling; work is split by {CHUNK_SIZE}-sample "
                            f"chunk, so a run under {CHUNK_SIZE} samples uses one thread")
        p.add_argument("--component", type=int, help="state component for scalar summaries")
        if with_output:
            p.add_argument("--out", help="output path ('-' for stdout)")
            p.add_argument("--format", choices=("csv", "json"), help="output format")

    p_run = sub.add_parser("run", help="compute a bound trace")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="unified bound next to baselines")
    common(p_cmp)
    p_cmp.add_argument("--baselines", help="comma list from {i,a,p}")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("oracle-verify",
                           help="check the recursion against the full-horizon reference")
    common(p_ver, with_output=False)
    p_ver.add_argument("--max-k", type=int, help="cap on verified time steps")
    p_ver.add_argument("--tolerance", type=float, default=1e-8)
    p_ver.set_defaults(func=cmd_oracle_verify)

    p_sen = sub.add_parser("sensors", help="averaged bound versus sensor count")
    common(p_sen)
    p_sen.add_argument("--max-m", type=int, help="largest sensor count")
    p_sen.add_argument("--target", type=float, help="desired average bound")
    p_sen.set_defaults(func=cmd_sensors)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelBuildError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
