"""Spans recorded around floppynet's public functions, from outside the package.

``Tracer.install`` replaces each listed function with a wrapper that records
one span per call (name, start, end, parent span, item) and, for some
functions, work counts read from the call's arguments or result.  The
wrapper is bound wherever the original object is bound: in its defining
module, in every floppynet module that imported it by name, and on the
class for methods.  ``uninstall`` puts every original back.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module, attribute path: every public function the per-layer metrics cover.
TRACED = [
    ("networks", "generate_triangular"),
    ("networks", "generate_bidisperse_packing"),
    ("networks", "Network.with_positions"),
    ("networks", "Network.edge_arrays"),
    ("rigidity", "build"),
    ("rigidity", "dof"),
    ("nullspace", "snd_basis"),
    ("nullspace", "svd_basis"),
    ("nullspace", "ensemble"),
    ("multiscale", "multiscale_basis"),
    ("multiscale", "find_hinges"),
    ("control", "run_task"),
    ("control", "project_to_manifold"),
    ("control", "match_modes"),
    ("springsim", "relax"),
    ("springsim", "shear_modulus"),
    ("springsim", "radial_stretch"),
    ("rigidify", "tune"),
    ("rigidify", "ms_select_link"),
    ("rigidify", "single_link_experiment"),
    ("loadpredict", "globality"),
    ("loadpredict", "predict_loaded_edges"),
    ("loadpredict", "threshold_sweep"),
]

SPAN_NAMES = [f"{mod}.{path}" for mod, path in TRACED]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_build(counts, args, kwargs, result):
    counts["rigidity.build.rows"] += result.shape[0]


def _count_snd(counts, args, kwargs, result):
    rows, coords = _arg(args, kwargs, 0, "R").shape
    counts["nullspace.snd_basis.rows"] += rows
    counts["nullspace.snd_basis.coords"] += coords


def _count_relax(counts, args, kwargs, result):
    steps = _arg(args, kwargs, 1, "config").steps
    counts["springsim.relax.steps"] += steps
    counts["springsim.relax.edge_steps"] += steps * _arg(args, kwargs, 0, "network").n_edges


def _count_run_task(counts, args, kwargs, result):
    counts["control.run_task.steps"] += len(result.records)


def _count_globality(counts, args, kwargs, result):
    counts["loadpredict.globality.runs"] += result.m


COUNTERS = {
    "rigidity.build": _count_build,
    "nullspace.snd_basis": _count_snd,
    "springsim.relax": _count_relax,
    "control.run_task": _count_run_task,
    "loadpredict.globality": _count_globality,
}

COUNT_NAMES = [
    "rigidity.build.rows",
    "nullspace.snd_basis.rows",
    "nullspace.snd_basis.coords",
    "springsim.relax.steps",
    "springsim.relax.edge_steps",
    "control.run_task.steps",
    "loadpredict.globality.runs",
]


class Tracer:
    """In-memory span and counter recorder for one single-threaded run.

    ``spans`` holds ``[name, start, end, parent, item]`` lists; ``parent`` is
    the index of the enclosing span or -1, ``item`` the index set by
    ``begin_item`` (-1 outside items).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_item(self, index: int) -> None:
        self.item = index

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "floppynet" or k.startswith("floppynet.")}
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            owner = mods[f"floppynet.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            # names bound by ``from ... import`` in other floppynet modules
            for other in mods.values():
                if other is not owner and getattr(other, attr, None) is original:
                    self._patch(other, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [(s[2] - s[1]) - _covered(children.get(i, ()))
            for i, s in enumerate(spans)]


def layer_metrics(spans, counts, rounds: int) -> dict[str, float]:
    """``F.calls``, ``F.self_s`` and the work counts, each per round."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, self_s in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        busy[span[0]] += self_s
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / rounds
        out[f"{name}.self_s"] = busy[name] / rounds
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0) / rounds
    steps = counts.get("springsim.relax.steps", 0)
    out["springsim.relax.step_us"] = 1e6 * busy["springsim.relax"] / steps if steps else 0.0
    return out


def top_level_time(spans) -> dict[int, float]:
    """Per item index, the summed duration of its spans that have no parent."""
    out: dict[int, float] = defaultdict(float)
    for name, start, end, parent, item in spans:
        if parent < 0 and item >= 0:
            out[item] += end - start
    return out
