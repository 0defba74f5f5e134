"""Per-layer tracing from the benchmark's own code.

The traced pass wraps the package's functions in every module namespace
that calls them, records one span per call (name, start, end, parent) in
memory, and reduces the spans to self time and call counts per layer.
Import times come from ``python -X importtime``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import subprocess
import time
from pathlib import Path

MODULES = ("cli", "config", "channel", "noise", "rates", "gaussian",
           "finite_size", "simulate")

# metric prefix -> (defining module, attribute) pairs; "Class.method"
# attributes are wrapped on the class.
TARGETS = {
    "config.resolve_scenario": [("config", "resolve_scenario")],
    "channel.fading_probability": [("channel", "fading_probability")],
    "channel.fading_model": [("channel", "FadingModel.from_geometry")],
    "channel.transmissivity": [("channel", "diffraction_transmissivity"),
                               ("channel", "microwave_transmissivity")],
    "noise.setup_noise": [("noise", "setup_noise_from_thetas"),
                          ("noise", "setup_noise")],
    "rates.asymptotic_rate": [("rates", "asymptotic_rate")],
    "rates.holevo_standard": [("rates", "holevo_standard")],
    "rates.eve_joint_cm": [("rates", "eve_joint_cm")],
    "rates.holevo_los": [("rates", "holevo_los"),
                         ("rates", "holevo_los_from_coefficients")],
    "rates.mutual_information": [("rates", "mutual_information")],
    "gaussian.symplectic_spectrum": [("gaussian", "symplectic_spectrum")],
    "gaussian.require_physical": [("gaussian",
                                   "CovarianceMatrix.require_physical")],
    "gaussian.entropic_h": [("gaussian", "entropic_h")],
    "finite_size.worst_case_estimators": [("finite_size",
                                           "worst_case_estimators")],
    "finite_size.mobile_worst_case": [("finite_size", "mobile_worst_case")],
    "finite_size.composable_rate": [("finite_size", "composable_rate"),
                                    ("finite_size", "composable_rate_general")],
    "finite_size.general_attack_extension": [("finite_size",
                                              "general_attack_extension")],
    "finite_size.microwave_estimators": [("finite_size",
                                          "microwave_estimators")],
    "finite_size.empirical_estimators": [("finite_size",
                                          "empirical_estimators")],
    "simulate.simulate_block": [("simulate", "simulate_block")],
    "simulate.simulate_fading_block": [("simulate", "simulate_fading_block")],
    "simulate.defade_block": [("simulate", "defade_block")],
    "simulate.coverage_experiment": [("simulate",
                                      "estimator_coverage_experiment")],
    "cli.evaluate_rate_point": [("cli", "evaluate_rate_point")],
    "cli.run_sweep": [("cli", "run_sweep")],
    "cli.emit": [("cli", "emit_csv"), ("cli", "emit_json")],
    "cli.dump": [("cli", "_dump_block")],
}

# layer metrics reported as call counts as well as self time
COUNTED = ("config.resolve_scenario", "channel.fading_probability",
           "rates.asymptotic_rate", "rates.holevo_standard",
           "gaussian.symplectic_spectrum", "gaussian.entropic_h",
           "finite_size.worst_case_estimators",
           "finite_size.empirical_estimators", "simulate.simulate_block")

PULSE_COUNTERS = ("simulate.simulate_block", "simulate.simulate_fading_block")

UNITS = {"_s": "s", "_calls": "count", "_per_point": "calls/point",
         "_bytes": "bytes", "_simulated": "pulses"}

IMPORT_MODULES = {"import.numpy_s": "numpy",
                  "import.scipy_special_s": "scipy.special",
                  "import.scipy_integrate_s": "scipy.integrate",
                  "import.scipy_constants_s": "scipy.constants"}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, request],
    where the request is the invocation the span belongs to."""

    def __init__(self):
        self.spans = []
        self.stack = []          # indices of the open spans
        self.pulses = 0
        self.request = ""

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index][1:3] = [start, end]

    def totals(self) -> tuple:
        """Self time and call count per span name."""
        self_time, calls = {}, {}
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_time, calls

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,request\n")
            for name, start, end, parent, request in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},"
                             f"{request}\n")


def _wrap(tracer: Tracer, name: str, fn):
    signature = inspect.signature(fn) if name in PULSE_COUNTERS else None

    def traced(*args, **kwargs):
        if signature is not None:
            bound = signature.bind(*args, **kwargs).arguments
            tracer.pulses += bound.get("pulses", 0)
        return tracer.call(name, fn, args, kwargs)

    return traced


class Patch:
    """Wrap every target in every cvqkd namespace that holds it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo = []
        self.missing = []

    def __enter__(self):
        mods = {m: importlib.import_module(f"cvqkd.{m}") for m in MODULES}
        for name, targets in TARGETS.items():
            for module, attr in targets:
                if "." in attr:
                    self._method(name, getattr(mods[module], attr.split(".")[0],
                                               None), attr.split(".")[1])
                    continue
                fn = getattr(mods[module], attr, None)
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapped = _wrap(self.tracer, name, fn)
                for mod in mods.values():
                    if getattr(mod, attr, None) is fn:
                        self.undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        return self

    def _method(self, name, cls, attr):
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{name} ({attr})")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(self.tracer, name, raw.__func__))
        else:
            wrapped = _wrap(self.tracer, name, raw)
        self.undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()
        return False


def import_times(python: str, env: dict, cwd: Path, samples: int) -> dict:
    """Median per-metric import times of `import cvqkd.cli`, in seconds."""
    values = {k: [] for k in ("import.total_s", "import.cvqkd_self_s",
                              *IMPORT_MODULES)}
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c",
                               "import cvqkd.cli"], env=env, cwd=cwd,
                              capture_output=True, text=True, check=True)
        total = own = 0
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            total += int(self_us)
            if name.startswith("cvqkd"):
                own += int(self_us)
            cumulative.setdefault(name, int(cum_us))
        values["import.total_s"].append(total * 1e-6)
        values["import.cvqkd_self_s"].append(own * 1e-6)
        for key, module in IMPORT_MODULES.items():
            values[key].append(cumulative.get(module, 0) * 1e-6)
    return {k: statistics.median(v) for k, v in values.items()}


def layer_metrics(tracer: Tracer, rows_standard: int, rows_mobile: int,
                  output_bytes: int) -> dict:
    """Per-layer figures of one traced pass."""
    self_time, calls = tracer.totals()
    out = {}
    for name in TARGETS:
        out[f"{name}_s"] = self_time.get(name, 0.0)
    for name in COUNTED:
        out[f"{name}_calls"] = calls.get(name, 0)
    out["simulate.pulses_simulated"] = tracer.pulses
    out["cli.output_bytes"] = output_bytes
    out["channel.fading_probability_per_point"] = (
        calls.get("channel.fading_probability", 0) / rows_mobile
        if rows_mobile else 0.0)
    out["gaussian.symplectic_spectrum_per_point"] = (
        calls.get("gaussian.symplectic_spectrum", 0) / rows_standard
        if rows_standard else 0.0)
    return out


def unit_of(metric: str) -> str:
    return next(unit for suffix, unit in UNITS.items()
                if metric.endswith(suffix))
