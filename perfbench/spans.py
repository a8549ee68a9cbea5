"""Layer spans recorded from outside the program.

The tracer wraps public functions of the memheat modules. A function bound
into other modules with ``from .x import f`` is replaced in every module
that holds it (and in ``cli.COMMANDS``), so no call path escapes the wrapper.
Each thread keeps its own stack of open spans, because ``experiments``
fans modes out over a thread pool; a span's self time is its duration minus
the durations of the spans it opened on the same thread.

Counts marked *computed* come from arguments and return values only.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs that get a span. grids, kernels and modes do
# negligible work and are not traced.
TARGETS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("experiments", "cmd_simulate"),
    ("experiments", "cmd_moment"),
    ("experiments", "cmd_biorth"),
    ("experiments", "cmd_control"),
    ("algebra", "volterra_solve"),
    ("algebra", "convolve"),
    ("algebra", "convolve_exp_monomial"),
    ("resolvents", "resolvent_of"),
    ("resolvents", "mode_resolvent_direct"),
    ("resolvents", "mode_resolvent_series"),
    ("dynamics", "solve_mode"),
    ("dynamics", "explicit_mode"),
    ("moments", "scope_threshold"),
    ("moments", "asymptotic_table"),
    ("moments", "build_moment_problem"),
    ("biorth", "gram"),
    ("biorth", "cauchy_inverse_log_diag"),
    ("biorth", "min_norm_biorth"),
    ("biorth", "control_norm_sweep"),
    ("output", "write_csv"),
    ("output", "write_json"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))

# Per-layer metrics reported by a traced run, with their units; BENCHMARK.json
# lists the same names.
METRICS = (
    [(f"experiments.cmd_{c}.wall_s", "s") for c in
     ("simulate", "moment", "biorth", "control")]
    + [
        ("cli.main.busy_s", "s"),
        ("config.load_config.busy_s", "s"),
        ("algebra.volterra_solve.calls", "count"),
        ("algebra.volterra_solve.busy_s", "s"),
        ("algebra.volterra_solve.madds", "count"),
        ("algebra.convolve.calls", "count"),
        ("algebra.convolve.busy_s", "s"),
        ("algebra.convolve_exp_monomial.calls", "count"),
        ("algebra.convolve_exp_monomial.busy_s", "s"),
        ("resolvents.resolvent_of.calls", "count"),
        ("resolvents.resolvent_of.busy_s", "s"),
        ("resolvents.mode_resolvent_direct.calls", "count"),
        ("resolvents.mode_resolvent_direct.busy_s", "s"),
        ("resolvents.mode_resolvent_direct.distinct_ratio", "ratio"),
        ("resolvents.mode_resolvent_series.calls", "count"),
        ("resolvents.mode_resolvent_series.busy_s", "s"),
        ("resolvents.mode_resolvent_series.terms", "count"),
        ("dynamics.solve_mode.busy_s", "s"),
        ("dynamics.explicit_mode.busy_s", "s"),
        ("moments.scope_threshold.busy_s", "s"),
        ("moments.asymptotic_table.busy_s", "s"),
        ("moments.build_moment_problem.busy_s", "s"),
        ("biorth.gram.busy_s", "s"),
        ("biorth.cauchy_inverse_log_diag.busy_s", "s"),
        ("biorth.min_norm_biorth.calls", "count"),
        ("biorth.min_norm_biorth.busy_s", "s"),
        ("biorth.min_norm_biorth.attempts", "count"),
        ("biorth.min_norm_biorth.bits", "bits"),
        ("biorth.min_norm_biorth.pass_ratio", "ratio"),
        ("biorth.control_norm_sweep.calls", "count"),
        ("biorth.control_norm_sweep.busy_s", "s"),
        ("biorth.control_norm_sweep.attempts", "count"),
        ("biorth.control_norm_sweep.bits", "bits"),
        ("biorth.control_norm_sweep.pass_ratio", "ratio"),
        ("output.write_csv.calls", "count"),
        ("output.write_csv.busy_s", "s"),
        ("output.write_csv.bytes", "B"),
        ("output.write_json.calls", "count"),
        ("output.write_json.busy_s", "s"),
        ("output.write_json.bytes", "B"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
)

# Computed counts that depend only on workload sizes, never on seeded values.
SEED_INVARIANT = (
    "algebra.volterra_solve.calls",
    "algebra.volterra_solve.madds",
    "resolvents.mode_resolvent_direct.calls",
    "resolvents.mode_resolvent_series.terms",
    "biorth.min_norm_biorth.attempts",
    "biorth.min_norm_biorth.bits",
    "biorth.control_norm_sweep.attempts",
    "biorth.control_norm_sweep.bits",
)


class _Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Install span wrappers on the memheat modules; aggregate on the fly."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats = defaultdict(_Stat)
        self._counts = defaultdict(float)
        self._direct_keys = set()
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "memheat" or name.startswith("memheat.")
        }
        for module, func in TARGETS:
            original = getattr(modules[f"memheat.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(vars(mod), attr, wrapper)
            commands = modules["memheat.cli"].COMMANDS
            for key, (fn, help_text) in list(commands.items()):
                if fn is original:
                    self._patch(commands, key, (wrapper, help_text))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def _patch(self, namespace: dict, key, value) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, original):
        count = _COUNTERS.get(name)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by child spans on this thread
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    stat = self._stats[name]
                    stat.calls += 1
                    stat.busy += duration
                    stat.self_time += duration - frame[0]
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    count(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (no overhead entry)."""
        out = {}
        for module, func in TARGETS:
            stat = self._stats[f"{module}.{func}"]
            prefix = f"{module}.{func}"
            out[f"{prefix}.calls"] = stat.calls
            out[f"{prefix}.busy_s"] = stat.busy
            if module == "experiments":
                out[f"{prefix}.wall_s"] = stat.busy
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self._stats[f"{m}.{f}"].self_time for m, f in TARGETS if m == layer
            )
        c = self._counts
        direct_calls = out["resolvents.mode_resolvent_direct.calls"]
        out["resolvents.mode_resolvent_direct.distinct_ratio"] = (
            len(self._direct_keys) / direct_calls if direct_calls else 0.0
        )
        for name in (
            "algebra.volterra_solve.madds",
            "resolvents.mode_resolvent_series.terms",
            "output.write_csv.bytes",
            "output.write_json.bytes",
        ):
            out[name] = int(c[name])
        for ladder in ("biorth.min_norm_biorth", "biorth.control_norm_sweep"):
            attempts = int(c[f"{ladder}.attempts"])
            out[f"{ladder}.attempts"] = attempts
            out[f"{ladder}.bits"] = int(c[f"{ladder}.bits"])
            out[f"{ladder}.pass_ratio"] = (
                out[f"{ladder}.calls"] / attempts if attempts else 0.0
            )
        return out


# -- computed counts, called under the tracer's lock ------------------------


def _volterra(tracer, args, result):
    n = len(args["rhs"].values)
    tracer._counts["algebra.volterra_solve.madds"] += (n - 1) * (n - 2) // 2


def _direct(tracer, args, result):
    triple = args["triple"]
    tracer._direct_keys.add(
        (
            triple.grid.steps,
            triple.grid.horizon,
            repr(triple.kernel.to_config()),
            float(args["mu2"]),
        )
    )


def _series(tracer, args, result):
    tracer._counts["resolvents.mode_resolvent_series.terms"] += result[1]


def _min_norm(tracer, args, result):
    c = tracer._counts
    c["biorth.min_norm_biorth.attempts"] += len(result.escalations)
    c["biorth.min_norm_biorth.bits"] = max(
        c["biorth.min_norm_biorth.bits"], result.precision_used
    )


def _sweep(tracer, args, result):
    # The sweep keeps only its final precision; the ladder doubles from the
    # requested bits (capped at the top), so the attempt count follows.
    c = tracer._counts
    used, requested = result.precision_used, args["precision"]
    c["biorth.control_norm_sweep.attempts"] += 1 + math.ceil(
        math.log2(used / requested) - 1e-9
    )
    c["biorth.control_norm_sweep.bits"] = max(c["biorth.control_norm_sweep.bits"], used)


def _written(name):
    def count(tracer, args, result):
        tracer._counts[name] += os.path.getsize(args["path"])

    return count


_COUNTERS = {
    "algebra.volterra_solve": _volterra,
    "resolvents.mode_resolvent_direct": _direct,
    "resolvents.mode_resolvent_series": _series,
    "biorth.min_norm_biorth": _min_norm,
    "biorth.control_norm_sweep": _sweep,
    "output.write_csv": _written("output.write_csv.bytes"),
    "output.write_json": _written("output.write_json.bytes"),
}
