"""Span tracing installed on the library from outside.

``Tracer.install`` rebinds every public function of the seven layer
modules in every namespace that holds it: the defining module (so calls
inside a module, such as ``build_system -> build_operator``, are seen),
the ``ladderfield`` package re-exports, and the names other modules pulled
in with ``from ... import`` (``cli`` reaches the library only through
those).  ``uninstall`` puts the originals back.

Each call records one span: task index, name, start, end, parent span
and the computed ``nbytes`` of the arrays it returned; for ``cli.main``
it is the payload written to ``sys.stdout`` instead.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("chain_complex", "scc", "spectral", "partition", "twinslit", "gauge_continuum", "cli")

#: Functions whose self time is reported on its own.
HOT = (
    "scc.build_operator",
    "spectral.ladder_spectrum_closed_form",
    "partition.project_source",
    "partition.brute_force_Z",
    "twinslit.phase_decomposition",
    "gauge_continuum.fierz_pauli_kernel",
)

def out_nbytes(obj) -> int:
    """Computed bytes of the arrays in a return value, dataclass fields included."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(out_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(x.nbytes for x in obj if isinstance(x, np.ndarray))
    return 0


class Tracer:
    """Records spans of wrapped library calls while ``active`` is set."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.task = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        writes_stdout = name == "cli.main"
        is_oracle = name == "partition.brute_force_Z"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            written = sys.stdout.tell() if writes_stdout else 0
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                flag = is_oracle and out is not None and bool(out.underresolved)
                nbytes = sys.stdout.tell() - written if writes_stdout else out_nbytes(out)
                spans[idx] = (self.task, name, start, end, parent, nbytes, flag)

        return traced

    def install(self) -> None:
        package = importlib.import_module("ladderfield")
        modules = [importlib.import_module(f"ladderfield.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for namespace in [package, *modules]:
            table = vars(namespace)
            for name, obj in list(table.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((table, name, obj))
                    table[name] = wrappers[obj]

    def uninstall(self) -> None:
        for table, name, original in reversed(self._saved):
            table[name] = original
        self._saved.clear()

    def summary(self, n_tasks: int, task_ns: int) -> dict[str, tuple[float, str]]:
        """Per-task means of self time, calls and returned bytes, by layer.

        ``task_ns`` is the summed duration of the traced tasks; the part of
        it outside every root span is reported as ``harness.self_ms``.
        """
        child = [0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        out_bytes = dict.fromkeys(LAYERS, 0)
        hot_ns = dict.fromkeys(HOT, 0)
        root_ns = 0
        oracle_calls = underresolved = 0
        for i, (_, name, start, end, parent, nbytes, flag) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            own = end - start - child[i]
            self_ns[layer] += own
            calls[layer] += 1
            out_bytes[layer] += nbytes
            if name in hot_ns:
                hot_ns[name] += own
            if parent < 0:
                root_ns += end - start
            if name == "partition.brute_force_Z":
                oracle_calls += 1
                underresolved += flag

        per = 1.0 / n_tasks
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = (self_ns[layer] * 1e-6 * per, "ms")
            metrics[f"{layer}.calls"] = (calls[layer] * per, "count")
            metrics[f"{layer}.out_bytes"] = (out_bytes[layer] * per, "B")
        for name in HOT:
            metrics[f"{name}.self_ms"] = (hot_ns[name] * 1e-6 * per, "ms")
        metrics["harness.self_ms"] = ((task_ns - root_ns) * 1e-6 * per, "ms")
        metrics["trace.wall_ms"] = (task_ns * 1e-6 * per, "ms")
        metrics["trace.tasks"] = (n_tasks, "count")
        metrics["partition.oracle_underresolved_frac"] = (
            underresolved / oracle_calls if oracle_calls else 0.0,
            "ratio",
        )
        return metrics

    def dump(self, path, header: dict) -> None:
        """Write gzipped JSON lines: ``header``, then one
        ``[task, name, start_ns, end_ns, parent, out_bytes]`` per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:6]) + "\n")
