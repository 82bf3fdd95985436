"""Spans around the calls into each spinsqueeze module, recorded from outside.

``Tracer.install`` replaces every traced function in every ``spinsqueeze``
module namespace where it is bound: modules import functions by name, so
patching ``states.rotate`` alone would miss ``twist.rotate`` and
``metrology.rotate``. Spans (name, start, end, parent span, thread, request)
are kept in per-thread in-memory arrays and written out by ``Tracer.save``.

A span opened on a thread with no open span (a sweep worker) is a child of
the innermost open span of the thread that installed the tracer, since the
benchmark is one client issuing one request at a time. Self time is a span's
duration minus the part of its interval covered by its children; children on
worker threads can overlap, so the covered part is a union of intervals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "spinsqueeze"

# (module, function) pairs; the layer name is the module's short name
TRACED = (
    ("cli", "run_cli"),
    ("cli", "sweep"),
    ("states", "rotate"),
    ("states", "moments"),
    ("states", "collective_from_local"),
    ("states", "css"),
    ("states", "husimi_q"),
    ("metrics", "compute_report"),
    ("twist", "evolve"),
    ("twist", "kicked_top_trajectory"),
    ("twist", "oat_closed_form"),
    ("channels", "decohered_squeezing"),
    ("models", "lmg_ground"),
    ("metrology", "ramsey_sensitivity"),
    ("metrology", "ramsey_signal"),
    ("metrology", "qfi_rotation"),
    ("metrology", "chi_criterion"),
    ("metrology", "sss_andre"),
    ("metrology", "ghz_y"),
    ("entangle", "evaluate_criteria"),
)


def _rotate_key(state, axis, *_a, **_k):
    return state.n_particles, tuple(float(x) for x in np.asarray(axis, dtype=float))


def _evolve_key(state, h, *_a, **_k):
    return state.n_particles, h


def _lmg_key(spec, *_a, **_k):
    return spec


# input identity for the repeat share: same N and axis, same N and
# Hamiltonian spec, same ferromagnet spec
REPEAT_KEYS = {
    "states.rotate": _rotate_key,
    "twist.evolve": _evolve_key,
    "models.lmg_ground": _lmg_key,
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order.

    Counts and self times are per round: every round of a workload has the
    same make-up, so a count repeats exactly however fast the program runs.
    """
    out = []
    for module, fn in TRACED:
        out += [(f"{module}.{fn}.calls", "count/round"), (f"{module}.{fn}.self_s", "s/round")]
    out.append(("cli.sweep.points", "count/round"))
    out += [(f"{name}.repeat_share", "share") for name in REPEAT_KEYS]
    out += [("trace.spans", "count/round"), ("trace.overhead_share", "share")]
    return out


class _Buffer:
    """One thread's spans as parallel typed arrays (no per-span objects)."""

    def __init__(self):
        self.span = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.request_id = 0
        # cleared while the benchmark checks outputs, whose program calls are
        # not part of any request
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main: _Buffer | None = None
        self._seen: dict[str, set] = {name: set() for name in REPEAT_KEYS}
        self._repeats = dict.fromkeys(REPEAT_KEYS, 0)
        self._keyed_calls = dict.fromkeys(REPEAT_KEYS, 0)
        self.sweep_points = 0
        self._patched: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _note_key(self, name: str, key) -> None:
        with self._lock:
            self._keyed_calls[name] += 1
            if key in self._seen[name]:
                self._repeats[name] += 1
            else:
                self._seen[name].add(key)

    def _wrap(self, index: int, fn):
        name = self.names[index]
        key_of = REPEAT_KEYS.get(name)
        count_points = name == "cli.sweep"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if key_of is not None:
                tracer._note_key(name, key_of(*args, **kwargs))
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack and buf is not tracer._main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                buf.span.append(sid)
                buf.parent.append(parent)
                buf.name.append(index)
                buf.request.append(tracer.request_id)
                buf.start.append(t0)
                buf.end.append(t1)
            if count_points:
                with tracer._lock:
                    tracer.sweep_points += len(result[1])
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a spinsqueeze module binds it."""
        self._main = self._buffer()
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for index, (module, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn_name)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _arrays(self):
        with self._lock:
            bufs = list(self._buffers)
        cols = {field: np.concatenate([np.asarray(getattr(b, field)) for b in bufs])
                for field in ("span", "parent", "name", "request", "start", "end")}
        cols["thread"] = np.concatenate([np.full(len(b.span), i) for i, b in enumerate(bufs)])
        return cols

    def self_times(self, cols) -> np.ndarray:
        """Each span's duration minus the union of its children's intervals."""
        span, parent = cols["span"], cols["parent"]
        start, end = cols["start"], cols["end"]
        if span.size == 0:
            return np.zeros(0)
        order = np.argsort(span)
        pos = np.searchsorted(span[order], parent)
        pos = np.minimum(pos, span.size - 1)
        has_parent = (parent > 0) & (span[order][pos] == parent)
        parent_row = np.where(has_parent, order[pos], -1)
        covered = np.zeros(span.size)
        rows = np.nonzero(parent_row >= 0)[0]
        # group the children by parent, ordered by start, and merge intervals
        rows = rows[np.lexsort((start[rows], parent_row[rows]))]
        groups = np.split(rows, np.nonzero(np.diff(parent_row[rows]))[0] + 1)
        for g in groups:
            if g.size == 0:
                continue
            p = parent_row[g[0]]
            s = np.clip(start[g], start[p], end[p])
            e = np.clip(end[g], start[p], end[p])
            reach = np.maximum.accumulate(e)
            prev = np.concatenate(([start[p]], reach[:-1]))
            covered[p] = float(np.sum(np.maximum(0.0, e - np.maximum(s, prev))))
        return (end - start) - covered

    def metrics(self, rounds: int, overhead_share: float) -> dict:
        cols = self._arrays()
        self_s = self.self_times(cols)
        out = {}
        for index, name in enumerate(self.names):
            mask = cols["name"] == index
            out[f"{name}.calls"] = np.count_nonzero(mask) / rounds
            out[f"{name}.self_s"] = float(np.sum(self_s[mask])) / rounds
        out["cli.sweep.points"] = self.sweep_points / rounds
        for name in REPEAT_KEYS:
            calls = self._keyed_calls[name]
            out[f"{name}.repeat_share"] = self._repeats[name] / calls if calls else 0.0
        out["trace.spans"] = cols["span"].size / rounds
        out["trace.overhead_share"] = overhead_share
        return out

    def save(self, path: str) -> None:
        """Write the spans as a NumPy .npz: one array per column plus names."""
        cols = self._arrays()
        np.savez(path, names=np.array(self.names), **cols)
