"""Span tracer that wraps ``qcgrad`` functions from outside the package.

A probe names a function by ``module:qualname`` (for example
``qcgrad.state:apply_matrix`` or ``qcgrad.trainer:CircuitObjective.loss``).
Installing it rebinds every name under which a ``qcgrad`` module holds that
function object, so callers that imported it by name see the wrapper too.
A probe whose target no longer exists installs nothing and reads 0 calls:
the benchmark keeps measuring across refactors that delete a layer.

Spans (name, start, end, parent span, train-call id) stay in memory until
:meth:`Tracer.write_csv` writes them as gzip-compressed CSV.  Count-only
probes record no span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    target: str  # "module:qualname"
    name: str  # span name
    count_only: bool = False
    # maps the wrapped call's (args, kwargs) to a suffix of the span name
    label: Callable[[tuple, dict], str] | None = None
    # called with (args, kwargs, result); returns bytes to add to the probe's byte counter
    nbytes: Callable[[tuple, dict, object], int] | None = None


def _resolve(target: str):
    """(owner object, attribute name, function) or None if any part is missing."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    func = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(func):
        return None
    return owner, attr, func


PACKAGE = "qcgrad"


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        # spans as parallel columns of plain values, so the garbage collector
        # has no per-span objects to traverse; parent -1 means none
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.call_ids = array("q")
        self.counts: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.missing: list[str] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for probe in self.probes:
            found = _resolve(probe.target)
            if found is None:
                self.missing.append(probe.target)
                continue
            owner, attr, func = found
            wrapper = self._wrap(probe, func)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(mod, name) for mod_name, mod in list(sys.modules.items())
                           if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                           for name, value in list(vars(mod).items()) if value is func]
            for holder, name in holders:
                self._restore.append((holder, name, func))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def _wrap(self, probe: Probe, func):
        counts, nbytes, stack, clock = self.counts, self.bytes, self._stack, time.perf_counter
        names, starts, ends, parents, call_ids = self.names, self.starts, self.ends, self.parents, self.call_ids

        if probe.count_only:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[probe.name] = counts.get(probe.name, 0) + 1
                return func(*args, **kwargs)

            return counted

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            name = probe.name + probe.label(args, kwargs) if probe.label else probe.name
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            call_ids.append(self.call_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            counts[name] = counts.get(name, 0) + 1
            if probe.nbytes is not None:
                nbytes[name] = nbytes.get(name, 0) + probe.nbytes(args, kwargs, result)
            return result

        return spanned

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            inclusive[name] = inclusive.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration - child[i]
        return inclusive, own

    def write_csv(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "train_call"])
            for i, name in enumerate(self.names):
                writer.writerow([i, name, f"{self.starts[i]:.9f}", f"{self.ends[i]:.9f}",
                                 self.parents[i], self.call_ids[i]])
