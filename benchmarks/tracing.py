"""Spans around corrbound's layers, recorded from outside the package.

A traced iteration installs hooks on public names of the package: every
module attribute, and every dict entry (such as the baseline registry), that
refers to a hooked function or class is pointed at a timing wrapper, and the
original is put back when the iteration ends.  The model callables are
wrapped on the model itself with ``dataclasses.replace``, and the recursion
step is passed in through ``run``'s ``stepper`` argument.  A hook whose
target name is missing marks its layer absent instead of failing the run.

Each span records its name, start, end, parent span and iteration, and the
time its children covered, so self time is known when it closes.  Spans of
very frequent leaf calls (the scalar log-densities) are only counted.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from time import perf_counter


class Tracer:
    """In-memory span store for one benchmark run."""

    def __init__(self):
        self.iteration = 0
        self.spans: list[tuple] = []  # (id, name, parent id, iteration, start, end, self_s)
        self.totals: dict[tuple[int, str], list] = {}  # (iteration, name) -> [calls, busy_s, self_s]
        self.counts: dict[tuple[int, str], float] = {}
        self.providers: list[tuple[int, object]] = []
        self.absent: dict[str, str] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Spans opened by pool threads with nothing open in their own thread
        # take their parent from the thread that drives the iterations.
        self._root_stack: list[list] = []
        self._local.stack = self._root_stack

    def _open(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        frame = [next(self._ids), name, parent, 0.0, 0.0]  # id, name, parent, start, child_s
        stack.append(frame)
        frame[3] = perf_counter()
        return stack, frame

    def _close(self, stack, frame, keep: bool) -> None:
        end = perf_counter()
        stack.pop()
        fid, name, parent, start, _ = frame
        duration = end - start
        with self._lock:
            own = duration - frame[4]
            if parent is not None:
                parent[4] += duration
            total = self.totals.setdefault((self.iteration, name), [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += own
            if keep:
                self.spans.append((fid, name, parent[0] if parent else None,
                                   self.iteration, start, end, own))

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            key = (self.iteration, name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, keep: bool = True, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` runs outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, frame, keep)
            if after is not None:
                after(args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for fid, name, parent, iteration, start, end, own in self.spans:
                out.write(json.dumps({"id": fid, "name": name, "parent": parent,
                                      "iteration": iteration, "start": start,
                                      "end": end, "self_s": own}) + "\n")


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------


def _replace_everywhere(old, new) -> list:
    """Point every reference to ``old`` in corrbound's modules at ``new``."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "corrbound":
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                undo.append(functools.partial(setattr, module, key, old))
            elif isinstance(value, dict):
                for entry, item in list(value.items()):
                    if item is old:
                        value[entry] = new
                        undo.append(functools.partial(value.__setitem__, entry, old))
    return undo


def _target(path: str):
    module_name, attr = path.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _array_megabytes(obj) -> float:
    total = 0
    for value in getattr(obj, "__dict__", {}).values():
        if isinstance(value, dict):
            total += sum(getattr(v, "nbytes", 0) for v in value.values())
        else:
            total += getattr(value, "nbytes", 0)
    return total / 1e6


def _model_hook(tracer: Tracer, build):
    timed_build = tracer.wrap("models.build", build)

    def on_simulate(args, batch):
        horizon, count = args[0], args[1]
        tracer.count("models.simulate.draws", count * (horizon + 1))
        tracer.count("models.simulate.mb_out", _array_megabytes(batch))

    def on_jacobian(args, _):
        tracer.count("models.meas_jacobian.rows", len(args[0]))

    wrappers = {
        "simulate": ("models.simulate", True, on_simulate),
        "meas_jacobian": ("models.meas_jacobian", True, on_jacobian),
        "singular_states": ("models.singular_states", True, None),
        "trans_logpdf": ("models.logpdf", False, None),
        "meas_logpdf": ("models.logpdf", False, None),
    }

    def build_traced(*args, **kwargs):
        model = timed_build(*args, **kwargs)
        if not dataclasses.is_dataclass(model):
            tracer.absent["models"] = "the built model is not a dataclass"
            return model
        fields = {f.name for f in dataclasses.fields(model)}
        changes = {
            attr: tracer.wrap(name, getattr(model, attr), keep=keep, after=after)
            for attr, (name, keep, after) in wrappers.items()
            if attr in fields and getattr(model, attr) is not None
        }
        return dataclasses.replace(model, **changes)

    return build_traced


def install_hooks(tracer: Tracer, layers: set[str] | None = None):
    """Install the hooks of ``layers`` (default: all); returns their remover."""
    undo: list = []
    step = _target("corrbound.recursion.step")
    if step is None:
        tracer.absent["recursion.step"] = "corrbound.recursion.step not found"
    hooks = [
        ("models", "corrbound.models.model_from_config",
         lambda fn: _model_hook(tracer, fn)),
        ("recursion.init", "corrbound.recursion.init_state",
         lambda fn: tracer.wrap("recursion.init", fn)),
        ("recursion.run", "corrbound.recursion.run",
         lambda fn: _run_hook(tracer, fn, step)),
        ("blocks", "corrbound.blocks.BlockProvider",
         lambda cls: _traced_provider_class(tracer, cls)),
        ("baselines.i", "corrbound.baselines.pcrb_ignore_correlation",
         lambda fn: tracer.wrap("baselines.i", fn)),
        ("baselines.a", "corrbound.baselines.pcrb_augmented",
         lambda fn: tracer.wrap("baselines.a", fn)),
        ("baselines.p", "corrbound.baselines.pcrb_prewhiten",
         lambda fn: tracer.wrap("baselines.p", fn)),
        ("oracle", "corrbound.oracle.verify_recursion",
         lambda fn: tracer.wrap("oracle.verify", fn)),
        ("selection", "corrbound.selection.sweep",
         lambda fn: tracer.wrap("selection.sweep", fn)),
    ]
    for layer, path, make in hooks:
        if layers is not None and layer not in layers:
            continue
        original = _target(path)
        if original is None:
            tracer.absent[layer] = f"{path} not found"
            continue
        undo += _replace_everywhere(original, make(original))

    def remove():
        for restore in reversed(undo):
            restore()

    return remove


def _run_hook(tracer: Tracer, run, step):
    def run_traced(model, est, horizon, stepper=None, provider=None, **kwargs):
        if step is not None or stepper is not None:
            stepper = tracer.wrap("recursion.step", stepper or step)
        return run(model, est, horizon, stepper=stepper, provider=provider, **kwargs)

    return tracer.wrap("recursion.run", run_traced)


def _traced_provider_class(tracer: Tracer, base):
    def init(self, *args, **kwargs):
        base.__init__(self, *args, **kwargs)
        tracer.providers.append((tracer.iteration, self))

    return type(base.__name__, (base,), {
        "__init__": tracer.wrap("blocks.provider", init),
        "blocks": tracer.wrap("blocks.get", base.blocks),
        "__module__": __name__,
    })


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, layer whose hook it needs).  Each is a value per traced
# iteration, reported as the median over the traced iterations.
PER_LAYER_UNITS = {
    "recursion.step.calls": ("count", "recursion.step"),
    "recursion.step.busy_s": ("s", "recursion.step"),
    "recursion.step.us_p50": ("us", "recursion.step"),
    "recursion.step.us_p99": ("us", "recursion.step"),
    "recursion.init.busy_s": ("s", "recursion.init"),
    "recursion.emit.self_s": ("s", "recursion.run"),
    "baselines.i.busy_s": ("s", "baselines.i"),
    "baselines.a.busy_s": ("s", "baselines.a"),
    "baselines.p.busy_s": ("s", "baselines.p"),
    "oracle.verify.busy_s": ("s", "oracle"),
    "cli.self_s": ("s", "cli"),
    "blocks.provider.busy_s": ("s", "blocks"),
    "blocks.contract.self_s": ("s", "blocks"),
    "blocks.fd.self_s": ("s", "blocks"),
    "blocks.samples": ("count", "blocks"),
    "blocks.resampled": ("count", "blocks"),
    "blocks.useful_ratio": ("ratio", "blocks"),
    "models.build_s": ("s", "models"),
    "models.simulate.calls": ("count", "models"),
    "models.simulate.busy_s": ("s", "models"),
    "models.simulate.draws": ("count", "models"),
    "models.simulate.mb_out": ("MB", "models"),
    "models.meas_jacobian.busy_s": ("s", "models"),
    "models.meas_jacobian.rows": ("count", "models"),
    "models.singular_states.busy_s": ("s", "models"),
    "models.logpdf.calls": ("count", "models"),
    "models.logpdf.busy_s": ("s", "models"),
    "selection.sweep.busy_s": ("s", "selection"),
    "selection.points": ("count", "selection"),
    "selection.point.busy_s": ("s", "selection"),
    "selection.concurrency": ("ratio", "selection"),
    "selection.simulate_per_point": ("count", "selection"),
    "trace.overhead_frac": ("ratio", "cli"),
    "trace.covered_frac": ("ratio", "cli"),
}


def _report_counts(provider) -> tuple[int, int] | None:
    report = getattr(provider, "report", None)
    if report is None:
        return None
    return int(getattr(report, "samples", 0)), int(getattr(report, "resampled", 0))


def layer_metrics(tracer: Tracer, traced_walls: dict[int, float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metric values; those of absent layers are left out."""
    by_id = {s[0]: s for s in tracer.spans}

    def has_ancestor(span, name):
        parent = by_id.get(span[2])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = by_id.get(parent[2])
        return False

    def total(i, name, field):
        return tracer.totals.get((i, name), (0, 0.0, 0.0))[field]

    def counted(i, name):
        return tracer.counts.get((i, name), 0)

    def per_iteration(i):
        samples = resampled = 0
        for iteration, provider in tracer.providers:
            counts = _report_counts(provider) if iteration == i else None
            if counts is not None:
                samples += counts[0]
                resampled += counts[1]
        spans = [s for s in tracer.spans if s[3] == i]
        points = [s for s in spans if s[1] == "recursion.run"
                  and by_id.get(s[2], (None, None))[1] == "selection.sweep"]
        point_busy = sum(s[5] - s[4] for s in points)
        sweep_busy = total(i, "selection.sweep", 1)
        sweep_simulates = sum(1 for s in spans if s[1] == "models.simulate"
                              and has_ancestor(s, "selection.sweep"))
        main_busy = total(i, "cli.main", 1)
        return {
            "recursion.step.calls": total(i, "recursion.step", 0),
            "recursion.step.busy_s": total(i, "recursion.step", 1),
            "recursion.init.busy_s": total(i, "recursion.init", 1),
            "recursion.emit.self_s": total(i, "recursion.run", 2),
            "baselines.i.busy_s": total(i, "baselines.i", 1),
            "baselines.a.busy_s": total(i, "baselines.a", 1),
            "baselines.p.busy_s": total(i, "baselines.p", 1),
            "oracle.verify.busy_s": total(i, "oracle.verify", 1),
            "cli.self_s": total(i, "cli.main", 2),
            "blocks.provider.busy_s": total(i, "blocks.provider", 1),
            "blocks.contract.self_s": total(i, "blocks.provider", 2),
            "blocks.fd.self_s": total(i, "blocks.get", 2),
            "blocks.samples": samples,
            "blocks.resampled": resampled,
            # No draws means nothing was wasted.
            "blocks.useful_ratio": samples / (samples + resampled) if samples else 1.0,
            "models.build_s": total(i, "models.build", 1),
            "models.simulate.calls": total(i, "models.simulate", 0),
            "models.simulate.busy_s": total(i, "models.simulate", 1),
            "models.simulate.draws": counted(i, "models.simulate.draws"),
            "models.simulate.mb_out": counted(i, "models.simulate.mb_out"),
            "models.meas_jacobian.busy_s": total(i, "models.meas_jacobian", 1),
            "models.meas_jacobian.rows": counted(i, "models.meas_jacobian.rows"),
            "models.singular_states.busy_s": total(i, "models.singular_states", 1),
            "models.logpdf.calls": total(i, "models.logpdf", 0),
            "models.logpdf.busy_s": total(i, "models.logpdf", 1),
            "selection.sweep.busy_s": sweep_busy,
            "selection.points": len(points),
            "selection.point.busy_s": point_busy,
            "selection.concurrency": point_busy / sweep_busy if sweep_busy else 0.0,
            "selection.simulate_per_point": sweep_simulates / len(points) if points else 0.0,
            "trace.covered_frac": (main_busy - total(i, "cli.main", 2)) / traced_walls[i],
        }

    rows = [per_iteration(i) for i in sorted(traced_walls)]
    values = {name: float(statistics.median(row[name] for row in rows)) for name in rows[0]}
    steps_us = [1e6 * (s[5] - s[4]) for s in tracer.spans if s[1] == "recursion.step"]
    if len(steps_us) > 1:
        cuts = statistics.quantiles(steps_us, n=100, method="inclusive")
        values["recursion.step.us_p50"] = cuts[49]
        values["recursion.step.us_p99"] = cuts[98]
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls.values()) / statistics.median(untraced_walls) - 1.0
    )
    absent = set(tracer.absent)
    return {name: value for name, value in values.items()
            if PER_LAYER_UNITS[name][1] not in absent}
