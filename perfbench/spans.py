"""Span tracer for the traced run, installed from outside the package.

`Tracer.install()` wraps every public function of each layer module (plus
the CLI's file I/O helpers) and rebinds every `tssim.*` module attribute that
points at one of them, because `phase`, `cli` and the package namespace
import functions by name. `uninstall()` restores the originals, so traced and
untraced operations can alternate in one process.

Spans (name, start, end, parent, op id) stay in memory until `write()`.
A span's self time is its duration minus the durations of its children;
calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("pauli", "encoding", "linalg", "_kernels", "decompose", "phase", "gates", "cli")
CLI_IO = ("_read_text", "_read_json", "_emit")
READOUT = ("phase.pea_phase", "phase.ipea_msb", "phase.taylor_phase", "phase.eigenvalue_from_phase")
ESTIMATORS = ("phase.pea_phase", "phase.ipea_msb", "phase.taylor_phase")


def metric_layer(layer: str) -> str:
    """Metric names must start with a letter: `_kernels` reports as `kernels`."""
    return layer.lstrip("_")


def _arg0(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _emitted_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("output_path")
    return os.path.getsize(path) if path else 0


# Counters read from a wrapped call's arguments or result:
# span name -> [(counter name, function of (args, kwargs, result) -> amount)].
COUNTERS = {
    "linalg.is_unitary": [("linalg.is_unitary.flops",
                           lambda a, k, r: 8 * np.shape(_arg0(a, k, "u"))[0] ** 3)],
    "_kernels.jacobi_sweeps": [("kernels.jacobi_sweeps.sweeps", lambda a, k, r: int(r))],
    # decompose.kept_group_ratio is kept groups over the possible 2^(n-1).
    "decompose.build_decomposition": [("decompose.kept_groups", lambda a, k, r: r.group_count()),
                                      ("decompose.possible_groups", lambda a, k, r: 2 ** (r.n - 1))],
    "cli._read_text": [("cli.io.bytes", lambda a, k, r: len(r.encode("utf-8")))],
    "cli._emit": [("cli.io.bytes", _emitted_bytes)],
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.child_s = []  # summed child durations, parallel to spans
        self.counters = defaultdict(float)
        self.success_probs = []
        self.broken = set()  # counters whose hook no longer fits the code
        self.wrapped = set()  # span names that exist in this version of tssim
        self.op_id = -1
        self._stack = []
        self._patches = []
        self._wrappers = None

    # ------------------------------------------------------------ install

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"tssim.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or (layer == "cli" and attr in CLI_IO)
                if (public and inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and obj not in wrappers):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(obj, name)
                    self.wrapped.add(name)
        return wrappers

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for modname, mod in list(sys.modules.items()):
            if modname != "tssim" and not modname.startswith("tssim."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -------------------------------------------------------------- spans

    def _wrap(self, fn, name: str):
        hooks = COUNTERS.get(name, [])
        records_prob = name in ESTIMATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
            self.child_s.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span = self.spans[idx]
                span[2] = end
                self._stack.pop()
                if parent >= 0:
                    self.child_s[parent] += end - span[1]
            for counter, amount in hooks:
                try:
                    self.counters[counter] += amount(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    self.broken.add(counter)
            if records_prob:
                try:
                    self.success_probs.append(float(result.success_prob))
                except (AttributeError, TypeError, ValueError):
                    self.broken.add("phase.success_prob_mean")
            return result

        return wrapper

    # ------------------------------------------------------------- report

    def totals(self) -> tuple[dict, dict]:
        """Summed self seconds and call counts per span name."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, self.child_s):
            self_s[name] += (end - start) - child
            calls[name] += 1
        return self_s, calls

    def inclusive(self) -> dict:
        """Summed durations per span name, counting only the outermost call of each name."""
        out = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def layer_metrics(self, ops: int) -> tuple[dict, list]:
        """Per-op layer metrics and the names reported absent.

        A metric is absent when a function it needs is not in this version of
        tssim, or a counter no longer fits its function's arguments or result.
        """
        self_s, calls = self.totals()
        out, absent = {}, []

        def put(metric, value, needs):
            if all(n in self.wrapped for n in needs) and metric not in self.broken:
                out[metric] = value
            else:
                absent.append(metric)

        def group(names, table):
            return sum(table.get(n, 0) for n in names) / ops

        for layer in LAYERS:
            names = [n for n in self.wrapped if n.startswith(layer + ".")]
            key = metric_layer(layer)
            needs = names or [f"{layer}.*"]
            put(f"{key}.self_s", group(names, self_s), needs)
            put(f"{key}.calls", group(names, calls), needs)

        for fn in ("encoding.taylor_encoding", "encoding.uh_from_sum", "encoding.select_oracle",
                   "encoding.dilation_sqrt", "linalg.is_unitary", "linalg.hermitian_eig",
                   "linalg.sqrtm_psd", "_kernels.jacobi_sweeps", "decompose.build_decomposition",
                   "decompose.assemble_uh", "decompose.reconstruct", "pauli.sum_matrix",
                   "pauli.parse_pauli_file", "cli.run"):
            put(f"{metric_layer(fn)}.self_s", self_s.get(fn, 0.0) / ops, [fn])
        for fn in ("linalg.is_unitary", "linalg.hermitian_eig", "decompose.unitary_split",
                   "pauli.word_matrix"):
            put(f"{fn}.calls", calls.get(fn, 0) / ops, [fn])

        put("linalg.is_unitary.flops", self.counters["linalg.is_unitary.flops"] / ops,
            ["linalg.is_unitary"])
        put("kernels.jacobi_sweeps.sweeps", self.counters["kernels.jacobi_sweeps.sweeps"] / ops,
            ["_kernels.jacobi_sweeps"])
        possible = self.counters["decompose.possible_groups"]
        ratio = self.counters["decompose.kept_groups"] / possible if possible else 0.0
        if self.broken & {"decompose.kept_groups", "decompose.possible_groups"}:
            absent.append("decompose.kept_group_ratio")
        else:
            put("decompose.kept_group_ratio", ratio, ["decompose.build_decomposition"])
        put("phase.readout.self_s", group(READOUT, self_s), READOUT)
        probs = self.success_probs
        put("phase.success_prob_mean", sum(probs) / len(probs) if probs else 0.0, ESTIMATORS)
        io = [f"cli.{n}" for n in CLI_IO]
        put("cli.io.self_s", group(io, self_s), io)
        put("cli.io.bytes", self.counters["cli.io.bytes"] / ops, io)
        return out, absent

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start and end (s), parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
