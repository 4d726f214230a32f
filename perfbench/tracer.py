"""Per-layer tracing installed from outside the package.

Every public function defined in a georobust module is wrapped, and the
wrapper is bound at every name under which a georobust module holds the
original (e.g. georobust.sweep.open_gate_metrics, georobust.gates.
schedule_propagator, georobust.d_matrix), so calls are seen wherever callers
look them up. The layer of a function is the module that defines it.

Spans (function, parent span, caller module, start, end) are kept in compact
arrays and written once, at the end. A layer's self time is the time of its
spans minus the time of their child spans. A function named by a metric that
no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import array
import functools
import sys
import time
import types

import numpy as np

PACKAGE = "georobust"
LAYERS = ("cli", "sweep", "gates", "pulses", "core", "robustness", "lindblad")

# metric -> functions it is read from (defining module.name)
COUNTED = {
    "cli.requests": ["cli.main"],
    "sweep.points": ["sweep.sweep_point"],
    "gates.solve_calls": ["gates.solve_phase_jumps"],
    "gates.build_calls": ["gates.family_build"],
    "pulses.propagator_calls": ["pulses.schedule_propagator"],
    "pulses.segment_calls": ["pulses.segment_propagator"],
    "pulses.hamiltonian_calls": ["pulses.segment_hamiltonian", "pulses.hamiltonian"],
    "core.expm_calls": ["core.mat_exp_hermitian"],
    "robustness.fidelity_calls": ["robustness.propagator_fidelity"],
    "robustness.src_calls": ["robustness.src_residual"],
    "robustness.dmatrix_calls": ["robustness.d_matrix"],
    "robustness.magnus_calls": ["robustness.magnus_terms"],
    "robustness.dynamical_calls": ["robustness.dynamical_integrals"],
    "lindblad.metrics_calls": ["lindblad.open_gate_metrics"],
    "lindblad.rhs_calls": ["lindblad.lindblad_rhs"],
    "lindblad.density_checks": ["lindblad.check_density"],
}
TIMED = {  # inclusive time of the outermost calls
    "sweep.csv_s": ["sweep.rows_to_csv", "sweep.deltas_to_csv"],
    "sweep.write_s": ["sweep.write_text"],
    "gates.solve_s": ["gates.solve_phase_jumps"],
    "gates.build_s": ["gates.family_build"],
    "pulses.propagator_s": ["pulses.schedule_propagator"],
    "pulses.segment_s": ["pulses.segment_propagator"],
    "core.expm_s": ["core.mat_exp_hermitian"],
    "robustness.fidelity_s": ["robustness.propagator_fidelity"],
    "robustness.src_s": ["robustness.src_residual"],
    "robustness.dmatrix_s": ["robustness.d_matrix"],
    "robustness.magnus_s": ["robustness.magnus_terms"],
    "robustness.dynamical_s": ["robustness.dynamical_integrals"],
    "lindblad.metrics_s": ["lindblad.open_gate_metrics"],
    "lindblad.propagate_s": ["lindblad.propagate_density"],
    "lindblad.check_s": ["lindblad.check_density"],
}
SELF_TIMED = {"sweep.point_self_s": ["sweep.sweep_point"]}
LAYER_SELF = {f"{layer}.self_s": layer for layer in ("cli", "sweep")}
OBSERVED = {  # values read from arguments or results
    "sweep.bytes_written": "sweep.write_text",
    "gates.solve_converged": "gates.solve_phase_jumps",
    "gates.iterations": "gates.solve_phase_jumps",
}
DERIVED = ("gates.propagations", "gates.propagations_per_solve",
           "trace.unattributed_s", "trace.overhead_frac", "trace.absent_names")

UNITS = {"requests": "count", "points": "count", "bytes_written": "B",
         "propagations_per_solve": "1/solve", "overhead_frac": "frac"}


def metric_names() -> list[str]:
    names = list(COUNTED) + list(TIMED) + list(SELF_TIMED) + list(LAYER_SELF)
    names += list(OBSERVED) + list(DERIVED)
    return sorted(dict.fromkeys(names), key=lambda n: (LAYERS + ("trace",)).index(n.split(".")[0]))


def unit(name: str) -> str:
    tail = name.split(".", 1)[1]
    return UNITS.get(tail, "s" if tail.endswith("_s") else "count")


def _observe_write(args, kwargs, result, acc):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    acc["sweep.bytes_written"] += len(text)


def _observe_solve(args, kwargs, result, acc):
    acc["gates.solve_converged"] += int(bool(getattr(result, "converged", False)))
    acc["gates.iterations"] += int(getattr(result, "iterations", 0) or 0)


OBSERVERS = {"sweep.write_text": _observe_write, "gates.solve_phase_jumps": _observe_solve}


class Tracer:
    """Wraps the package's public functions and records spans in memory."""

    def __init__(self):
        self.names: list[str] = []          # function id -> "module.name"
        self.callers: list[str] = []        # caller id -> module name
        self._caller_ids: dict[str, int] = {}
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.caller = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = array.array("b")  # 1 when no enclosing span has the same function
        self._depth: list[int] = []
        self.acc = {name: 0 for name in OBSERVED}
        self._stack = [-1]
        self._undo: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rsplit(".", 1)[-1]
                if (not obj.__module__.startswith(PACKAGE) or obj.__name__.startswith("_")
                        or layer not in LAYERS):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._undo.append((vars(mod), attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._undo):
            namespace[attr] = obj
        self._undo.clear()

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        self._depth.append(0)
        observe = OBSERVERS.get(qualname)
        stack, depth, caller_ids = self._stack, self._depth, self._caller_ids
        fids, parents, callers, outer = self.fid, self.parent, self.caller, self.outer
        starts, ends, getframe, clock = self.start, self.end, sys._getframe, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            mod = getframe(1).f_globals.get("__name__")
            cid = caller_ids.get(mod)
            if cid is None:
                cid = caller_ids[mod] = len(self.callers)
                self.callers.append(str(mod))
            level = depth[fid]
            fids.append(fid)
            parents.append(stack[-1])
            callers.append(cid)
            outer.append(level == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[fid] = level + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[fid] = level
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, kwargs, result, self.acc)
            return result

        return wrapper

    def spans(self) -> dict[str, np.ndarray]:
        return {"fid": np.frombuffer(self.fid, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "caller": np.frombuffer(self.caller, dtype=np.int32),
                "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), callers=np.array(self.callers),
                            **self.spans())

    def metrics(self, traced_wall: float) -> tuple[dict, list[str]]:
        """Per-layer metrics and the metric-named functions that are absent.

        traced_wall is the summed latency of the traced requests; the part of
        it no root span covers is trace.unattributed_s. trace.overhead_frac
        needs an untraced run, so it is left to the caller (0 here)."""
        sp, dur, self_t, span_layer = self._times()
        has_parent = sp["parent"] >= 0
        outer = sp["outer"]
        index = {name: i for i, name in enumerate(self.names)}
        absent: set[str] = set()

        def ids(funcs):
            found = [index[f] for f in funcs if f in index]
            absent.update(f for f in funcs if f not in index)
            return np.isin(sp["fid"], found)

        out: dict[str, float] = {}
        for metric, funcs in COUNTED.items():
            out[metric] = float(np.count_nonzero(ids(funcs)))
        for metric, funcs in TIMED.items():
            out[metric] = float(dur[ids(funcs) & outer].sum())
        for metric, funcs in SELF_TIMED.items():
            out[metric] = float(self_t[ids(funcs)].sum())
        for metric, layer in LAYER_SELF.items():
            out[metric] = float(self_t[span_layer == LAYERS.index(layer)].sum())
        for metric, func in OBSERVED.items():
            ids([func])
            out[metric] = float(self.acc[metric])
        gates_caller = self._caller_ids.get(PACKAGE + ".gates", -2)
        out["gates.propagations"] = float(np.count_nonzero(
            ids(["pulses.schedule_propagator"]) & (sp["caller"] == gates_caller)))
        solves = out["gates.solve_calls"]
        out["gates.propagations_per_solve"] = out["gates.propagations"] / solves if solves else 0.0
        out["trace.unattributed_s"] = max(0.0, traced_wall - float(dur[~has_parent].sum()))
        out["trace.overhead_frac"] = 0.0
        out["trace.absent_names"] = float(len(absent))
        return out, sorted(absent)

    def _times(self):
        """(spans, durations, self times, layer index of each span)."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names] or [0])
        return sp, dur, dur - child, layer_of[sp["fid"]]

    def layer_self_times(self) -> dict[str, float]:
        _, _, self_t, span_layer = self._times()
        totals = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
        return {layer: float(totals[i]) for i, layer in enumerate(LAYERS)}
