"""Span tracing of the ``msdn`` package, installed from outside it.

The tracer replaces every public module-level function of the traced
modules with a wrapper that records one span per call: the function's
name, its start and end on ``time.perf_counter``, the index of the span
that was open when it was called (its parent), and the id of the
benchmark run (a set-up repetition or a workload cycle) it belongs to.
Modules that imported a function by name (``zsl_eval.forward``,
``ablation.train``, ``model.softmax_stable``, the handler table in
``cli``, ...) are patched too, so every call path is seen.

Spans are kept in flat arrays while the benchmark runs and written out
once at the end.  A span's self time is its duration minus the
durations of its direct children: calls are single-threaded and
properly nested, so the children's intervals never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "msdn"
TRACED_MODULES = ("cli", "data_io", "ndmath", "model", "losses", "training",
                  "zsl_eval", "ablation")


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _rmsprop_bytes(params) -> int:
    # Computed, not measured: a step reads param, grad and both buffers
    # and writes param and both buffers, 7 arrays of the parameter size.
    return 7 * sum(arr.nbytes for arr in params.values())


def _train_run(ds, cfg, loss_cfg=None):
    """(what was trained, train images processed) of one ``train`` call."""
    key = (id(ds), cfg, loss_cfg if loss_cfg is not None else cfg.loss_config())
    return key, cfg.epochs * int(ds.train_idx.size)


# Per-call notes: what each call moved or which config it ran.  Byte
# counts of a read are taken before the call, of a write after it.
_BEFORE = {"data_io.read_container": lambda path, *a, **k: _file_bytes(path)}
_AFTER = {
    "data_io.write_container": lambda path, *a, **k: _file_bytes(path),
    "training.rmsprop_step": lambda params, *a, **k: _rmsprop_bytes(params),
    "training.train": _train_run,
}


class Tracer:
    """Records spans around the public functions of ``msdn`` modules."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        # qualname -> [(span index, note)] for the functions in _BEFORE/_AFTER
        self.notes: dict[str, list] = {}
        self.run_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, names, parents, runs = (self.start, self.end, self.name,
                                            self.parent, self.run)
        stack, clock, tracer = self._stack, time.perf_counter, self
        before, after = _BEFORE.get(qualname), _AFTER.get(qualname)
        notes = self.notes.setdefault(qualname, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            if before is not None:
                notes.append((i, before(*args, **kwargs)))
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                notes.append((i, after(*args, **kwargs)))
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a traced function for its wrapper."""
        if self._patches:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in self._wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = self._wrappers[value]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, plus the name table, to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-run call counts, total and self times, and ancestry masks."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.index = {n: i for i, n in enumerate(names)}
        self.spans = spans
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        linked = parent >= 0
        self_time = dur - np.bincount(parent[linked], weights=dur[linked],
                                      minlength=dur.size)
        self.run_ids = sorted(set(spans["run"].tolist()))
        self._row = {run: i for i, run in enumerate(self.run_ids)}
        self._key = (np.searchsorted(self.run_ids, spans["run"]) * len(names)
                     + spans["name"])
        self._shape = (len(self.run_ids), len(names))
        self._calls = self._per_run()
        self._total = self._per_run(dur)
        self._self = self._per_run(self_time)
        self._under: dict[str, np.ndarray] = {}

    def _per_run(self, weights=None, mask=None) -> np.ndarray:
        key = self._key if mask is None else self._key[mask]
        if weights is not None and mask is not None:
            weights = weights[mask]
        size = self._shape[0] * self._shape[1]
        return np.bincount(key, weights=weights, minlength=size).reshape(self._shape)

    @staticmethod
    def _cell(table: np.ndarray, row: int | None, col: int) -> float:
        return 0.0 if row is None else float(table[row, col])

    def calls(self, run: int, qualname: str) -> int:
        return int(self._cell(self._calls, self._row.get(run), self.index[qualname]))

    def total_s(self, run: int, qualname: str) -> float:
        return self._cell(self._total, self._row.get(run), self.index[qualname])

    def self_s(self, run: int, qualname: str) -> float:
        return self._cell(self._self, self._row.get(run), self.index[qualname])

    def span_count(self, run: int) -> int:
        row = self._row.get(run)
        return 0 if row is None else int(self._calls[row].sum())

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of the spans that a call of ``ancestor`` is or encloses."""
        if ancestor not in self._under:
            parent = self.spans["parent"]
            linked = parent >= 0
            flag = self.spans["name"] == self.index[ancestor]
            while True:
                grown = flag.copy()
                grown[linked] |= flag[parent[linked]]
                if (grown == flag).all():
                    break
                flag = grown
            self._under[ancestor] = flag
        return self._under[ancestor]

    def calls_under(self, run: int, qualname: str, ancestor: str) -> int:
        counts = self._per_run(mask=self.under(ancestor))
        return int(self._cell(counts, self._row.get(run), self.index[qualname]))
