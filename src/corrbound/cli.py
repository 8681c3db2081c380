"""Command-line interface: runs, baseline comparisons, verification, sweeps.

Every command is a deterministic function of its configuration and seed;
output files contain full-precision decimal values that round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines as _baselines
from . import oracle as _oracle
from .blocks import BLOCK_SIZE, CHUNK_SIZE, ESTIMATOR_MODES, ExpectationEstimator
from .errors import ConfigError, ModelBuildError, NumericalError, require_int
from .models import SystemModel, model_from_config, require_keys
from .recursion import MAX_HORIZON, PCRBTrace, run
from .selection import min_sensors, sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_NUMERICAL = 3

_BUILTINS = ("example1", "example2")  # --model NAME is model kind builtin_NAME


def _builtin_model(name: str) -> dict:
    if name not in _BUILTINS:
        raise argparse.ArgumentTypeError(
            f"unknown builtin {name!r} (choose from {list(_BUILTINS)})")
    return {"kind": f"builtin_{name}"}


def _name_list(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


# Every setting, once: (config section, None at the top level; key; the flag
# that overrides it; default; the commands whose parser takes the flag, None
# for every command; the flag's argparse options).  A flag on the command
# line always wins over the config file's entry.
_SETTINGS = (
    (None, "model", "model", None, None,
     {"type": _builtin_model, "help": f"builtin model name ({', '.join(_BUILTINS)})"}),
    (None, "horizon", "horizon", 40, None,
     {"type": int, "help": "number of recursion steps"}),
    ("estimator", "mode", "mode", ExpectationEstimator.mode, None,
     {"choices": ESTIMATOR_MODES, "help": "expectation estimator mode"}),
    ("estimator", "samples", "samples", ExpectationEstimator.samples, None,
     {"type": int, "help": "Monte-Carlo sample count"}),
    ("estimator", "seed", "seed", ExpectationEstimator.seed, None,
     {"type": int, "help": "Monte-Carlo seed"}),
    ("estimator", "workers", "workers", ExpectationEstimator.workers, None,
     {"type": int, "help": f"threads that sample, the calling one included, claiming "
                           f"{BLOCK_SIZE}-sample Jacobian blocks or {CHUNK_SIZE}-sample "
                           "FD-MC chunks in turn; at most one per block or chunk and per "
                           "CPU"}),
    ("output", "path", "out", None, ("run", "compare", "sensors"),
     {"help": "output path ('-' for stdout)"}),
    (None, "component", "component", 0, ("compare", "sensors"),
     {"type": int, "help": "state component for scalar summaries"}),
    ("output", "format", "format", "csv", ("run",),
     {"choices": ("csv", "json"), "help": "output format"}),
    (None, "baselines", "baselines", [], ("compare",),
     {"type": _name_list, "help": "comma list from {i,a,p}"}),
    ("sweep", "max_sensors", "max_m", 16, ("sensors",),
     {"type": int, "help": "largest sensor count"}),
    ("sweep", "target", "target", None, ("sensors",),
     {"type": float, "help": "desired average bound"}),
)


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
    return data


def _settings(args: argparse.Namespace, data: dict) -> dict:
    """Each setting's value by key: its flag if given, else the config
    file's entry, else its default."""
    keys: dict[str | None, set[str]] = {}
    for section, key, *_ in _SETTINGS:
        keys.setdefault(section, set()).add(key)
    require_keys(data, keys[None] | set(keys) - {None}, "config")
    for section, allowed in keys.items():
        if section is not None:
            require_keys(data.get(section, {}), allowed, f"config.{section}")
    values = {}
    for section, key, flag, default, *_ in _SETTINGS:
        value = getattr(args, flag, None)
        if value is None:
            value = (data if section is None else data.get(section, {})).get(key, default)
        values[key] = value
    return values


def _require_writable(path) -> None:
    """Reject an output path whose file cannot be made, before any work."""
    if path is None or path == "-":
        return
    if not isinstance(path, str):
        raise ConfigError(f"output.path: expected a file name, got {path!r}")
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ConfigError(
            f"cannot write output file {path!r}: not a file in an existing directory")


def _build_config(args: argparse.Namespace
                  ) -> tuple[dict, SystemModel, ExpectationEstimator]:
    """Each setting's checked value by key (see :func:`_settings`), the
    model built from the ``model`` entry and the estimator."""
    data = _load_config_file(args.config) if args.config else {}
    values = _settings(args, data)
    if values["model"] is None:
        raise ConfigError("no model given: pass --model or a config file with a 'model' entry")
    estimator = ExpectationEstimator(mode=values["mode"], samples=values["samples"],
                                     seed=values["seed"], workers=values["workers"])

    require_int(values["horizon"], "horizon", 1, MAX_HORIZON)
    require_int(values["component"], "component", 0)
    require_int(values["max_sensors"], "sweep.max_sensors (--max-m)", 1)

    # compare and sensors write CSV only.
    formats = ("csv",) if args.command in ("compare", "sensors") else ("csv", "json")
    if values["format"] not in formats:
        raise ConfigError(f"output.format: expected {' or '.join(map(repr, formats))} "
                          f"for {args.command}, got {values['format']!r}")
    _require_writable(values["path"])

    baselines = values["baselines"]
    if not isinstance(baselines, list):
        raise ConfigError(f"baselines: expected a list of names, got {baselines!r}")
    for b in baselines:
        if not isinstance(b, str) or b not in _baselines.BASELINES:
            raise ConfigError(
                f"baselines: unknown baseline {b!r} "
                f"(choose from {sorted(_baselines.BASELINES)})"
            )

    target = values["target"]
    if target is not None and (not isinstance(target, (int, float))
                               or isinstance(target, bool)
                               or not abs(target) <= sys.float_info.max):
        raise ConfigError(f"sweep.target: expected a finite number, got {target!r}")

    model = model_from_config(values["model"])
    component = values["component"]
    if component >= model.state_dim:
        raise ConfigError(
            f"component {component} out of range for state dim {model.state_dim}"
        )
    return values, model, estimator


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
    n = len(trace.info)
    values = np.concatenate([trace.info.reshape(n, -1), trace.bound.reshape(n, -1),
                             trace.root], axis=1)
    texts = [",".join(map(_fmt, row)) for row in values.tolist()]
    lines = [",".join(header)]
    lines += [f"{s},{texts[i]}" for s, i in enumerate(trace.index.tolist(), 1)]
    return "\n".join(lines) + "\n"


def _trace_json(trace: PCRBTrace, model: SystemModel, horizon: int, seed: int | None) -> str:
    rows = [{"info": info, "bound": bound, "sqrt_bound": root} for info, bound, root
            in zip(trace.info.tolist(), trace.bound.tolist(), trace.root.tolist())]
    payload = {
        "model": model.name,
        "horizon": horizon,
        "seed": seed,
        "entries": [{"k": s, "time_index": trace.start + s, **rows[i]}
                    for s, i in enumerate(trace.index.tolist(), 1)],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    values, model, est = _build_config(args)
    trace = run(model, est, values["horizon"])
    if values["format"] == "csv":
        _write_text(values["path"], _trace_csv(trace, model.state_dim))
    else:
        _write_text(values["path"], _trace_json(trace, model, values["horizon"], values["seed"]))
    if trace.mc_resampled:
        print(f"note: {trace.mc_resampled} sample(s) redrawn near a "
              "measurement singularity", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    values, model, est = _build_config(args)
    names = dict.fromkeys(values["baselines"] or ("i", "a", "p"))  # one column per name
    component = values["component"]
    # The baselines are closed-form and refuse a model without the view they
    # need, so they run first: a refusal comes before the unified run samples.
    baselines = [_baselines.BASELINES[name](model, values["horizon"]) for name in names]
    traces = [run(model, est, values["horizon"]), *baselines]
    header = ["k", "pcrb_t"] + [_baselines.BASELINE_LABELS[name] for name in names]
    # A step's values are fixed by its traces' row indices, so each distinct
    # tuple of rows is formatted once.  The tuple is keyed in mixed radix,
    # one trace at a time, renumbered after each so the key stays small.
    key = np.zeros(values["horizon"], dtype=np.intp)
    for t in traces:
        _, first, key = np.unique(key * len(t.root) + t.index,
                                  return_index=True, return_inverse=True)
    texts = [",".join(_fmt(t.root[t.index[s], component]) for t in traces)
             for s in first.tolist()]
    lines = [",".join(header)]
    lines += [f"{k},{texts[i]}" for k, i in enumerate(key.tolist(), 1)]
    _write_text(values["path"], "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    values, model, est = _build_config(args)
    k_max = model.start_time + values["horizon"]
    deviations = _oracle.verify_recursion(model, est, k_max)
    worst = 0.0
    for k in sorted(deviations):
        print(f"k={k} max_rel_dev={deviations[k]:.3e}")
        worst = max(worst, deviations[k])
    tolerance = 1e-8  # the fixed gate on the largest relative deviation
    print(f"worst deviation {worst:.3e} (tolerance {tolerance:.1e})")
    if worst > tolerance:
        print("FAIL: recursion deviates from the full-horizon reference",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print("OK: recursion matches the full-horizon reference")
    return EXIT_OK


def cmd_sensors(args: argparse.Namespace) -> int:
    values, model, est = _build_config(args)
    max_sensors, target = values["max_sensors"], values["target"]
    avg = sweep(model, max_sensors, horizon=values["horizon"],
                component=values["component"], est=est)
    lines = ["sensors,avg_bound"] + [f"{m},{_fmt(v)}" for m, v in enumerate(avg, 1)]
    _write_text(values["path"], "\n".join(lines) + "\n")
    if target is not None:
        needed = min_sensors(avg, target)
        if needed is None:
            print(f"target {target:g}: unachievable with up to {max_sensors} sensors")
        else:
            print(f"target {target:g}: {needed} sensor(s) suffice")
    return EXIT_OK


_COMMANDS = {  # name: (function, help)
    "run": (cmd_run, "compute a bound trace"),
    "compare": (cmd_compare, "unified bound next to baselines"),
    "oracle-verify": (cmd_oracle_verify,
                      "check the recursion against the full-horizon reference"),
    "sensors": (cmd_sensors, "averaged bound versus sensor count"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit
    1); its subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every :func:`main`
    call parses with the same one."""
    parser = _Parser(
        prog="corrbound",
        description="Recursive estimation-error lower bounds under "
                    "temporally correlated noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON configuration file")
        for _, _, flag, _, commands, options in _SETTINGS:
            if commands is None or name in commands:
                p.add_argument(f"--{flag.replace('_', '-')}", **options)
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
