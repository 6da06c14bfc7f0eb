"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces library functions at their module attribute with
wrappers, so calls that look the function up through the module (which
is how the package calls across its own modules) are seen.  A timed
wrapper records a span (id, name, parent, op, start, end and the
thread's CPU clock at both ends) in a flat per-thread integer array; a
counted wrapper only increments a per-thread counter.  Spans stay in
memory until :meth:`Tracer.summary` reads them.

A span's duration is wall time on the thread that runs the op and the
thread's CPU time on any other thread.  The pool workers of
``run_montecarlo`` hold the interpreter lock in turn, so their wall time
would count each other's work as their own; their CPU time does not.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from array import array
from collections import Counter

import numpy as np

ROOT_SPAN = "bench.op"

# Fields of one span in a thread's flat array.
_ID, _NAME, _PARENT, _OP, _T0, _T1, _C0, _C1 = range(8)
_WIDTH = 8

_NULL = contextlib.nullcontext()


class NullRecorder:
    """The recorder of untraced runs: every phase is a shared no-op."""

    def phase(self, name: str):
        return _NULL

    def op(self, op_id: int):
        return _NULL


class _ThreadState:
    __slots__ = ("thread", "stack", "spans", "counts")

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[int] = []
        self.spans = array("q")
        self.counts: Counter = Counter()


def layer_of(name: str) -> str:
    """The layer of a span is its name up to the last dot."""
    return name.rsplit(".", 1)[0]


class Tracer:
    """Wraps functions, records spans and counts, and summarises them."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._op_id = -1
        self._op_state: _ThreadState | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _begin(self, name_id: int) -> int:
        st = self._state()
        if st.stack:
            parent = st.spans[st.stack[-1] + _ID]
        else:
            # A pool worker's outermost call belongs to the innermost span
            # open on the thread that started the op.
            owner = self._op_state
            parent = owner.spans[owner.stack[-1] + _ID] if owner and owner.stack else 0
        spans = st.spans
        base = len(spans)
        spans.extend(
            (next(self._ids), name_id, parent, self._op_id, 0, 0, time.thread_time_ns(), 0)
        )
        st.stack.append(base)
        spans[base + _T0] = time.perf_counter_ns()
        return base

    def _end(self) -> None:
        t1 = time.perf_counter_ns()
        st = self._local.state
        base = st.stack.pop()
        st.spans[base + _T1] = t1
        st.spans[base + _C1] = time.thread_time_ns()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span recorded by the benchmark around a group of library calls."""
        self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._end()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one benchmark op, on the calling thread."""
        self._op_state = self._state()
        self._op_id = op_id
        self._begin(self._name_id(ROOT_SPAN))
        try:
            yield
        finally:
            self._end()
            self._op_state = None
            self._op_id = -1

    # -- patching --------------------------------------------------------

    def wrap(self, module, attr: str, name: str, timed: bool = True) -> None:
        """Replace ``module.attr`` with a wrapper recording it as `name`."""
        fn = getattr(module, attr)
        begin, end, state = self._begin, self._end, self._state
        name_id = self._name_id(name)

        if timed:
            def wrapper(*args, **kwargs):
                begin(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end()
        else:
            def wrapper(*args, **kwargs):
                state().counts[name] += 1
                return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # -- reading ---------------------------------------------------------

    def summary(self) -> "TraceSummary":
        with self._lock:
            states = list(self._states)
        blocks, threads = [], []
        counts: Counter = Counter()
        for st in states:
            block = np.frombuffer(st.spans, dtype=np.int64).reshape(-1, _WIDTH)
            blocks.append(block.copy())
            threads.append(np.full(block.shape[0], st.thread, dtype=np.int64))
            counts.update(st.counts)
        spans = np.concatenate(blocks) if blocks else np.zeros((0, _WIDTH), np.int64)
        thread = np.concatenate(threads) if threads else np.zeros(0, np.int64)
        return TraceSummary(spans, thread, list(self._names), counts)


class TraceSummary:
    """Durations, self times and counts derived from recorded spans."""

    def __init__(self, spans: np.ndarray, thread: np.ndarray, names: list[str], counts: Counter):
        order = np.argsort(spans[:, _ID], kind="stable")
        self.spans = spans = spans[order]
        self.thread = thread = thread[order]
        self.names = names
        self.name = spans[:, _NAME]
        # Row of each span's parent, or -1 for a span without one.
        has_parent = spans[:, _PARENT] > 0
        self.parent = np.full(len(spans), -1, dtype=np.int64)
        self.parent[has_parent] = np.searchsorted(spans[:, _ID], spans[has_parent, _PARENT])

        op_thread = np.full(len(spans), -1, dtype=np.int64)
        if ROOT_SPAN in names:
            roots = self.name == names.index(ROOT_SPAN)
            for op_id, tid in zip(spans[roots, _OP], thread[roots]):
                op_thread[spans[:, _OP] == op_id] = tid
        wall = spans[:, _T1] - spans[:, _T0]
        cpu = spans[:, _C1] - spans[:, _C0]
        self.duration = np.where(thread == op_thread, wall, cpu)
        covered = np.zeros(len(spans), dtype=np.int64)
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_ns = self.duration - covered

        self.calls: Counter = Counter(
            {names[i]: int(c) for i, c in enumerate(np.bincount(self.name, minlength=len(names)))}
        )
        self.calls.update(counts)

    def _mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def total_s(self, *names: str) -> float:
        """Summed inclusive duration of every span with one of `names`."""
        return float(self.duration[self._mask(names)].sum()) * 1e-9

    def count(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)

    def self_s_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + float(self.self_ns[self.name == i].sum()) * 1e-9
        return out

    def count_under(self, phase: str, *names: str) -> int:
        """Spans named one of `names` with an ancestor span named `phase`."""
        if phase not in self.names:
            return 0
        target = self.names.index(phase)
        cur = self.parent[self._mask(names)]
        found = 0
        while cur.size:
            cur = cur[cur >= 0]
            hit = self.name[cur] == target
            found += int(hit.sum())
            cur = self.parent[cur[~hit]]
        return found

    def threads_below(self, name: str) -> int:
        """Most distinct threads running the direct children of one span
        named `name`."""
        if name not in self.names:
            return 0
        target = self.names.index(name)
        child = (self.parent >= 0) & (self.name[np.maximum(self.parent, 0)] == target)
        per_parent: dict[int, set] = {}
        for p, tid in zip(self.parent[child], self.thread[child]):
            per_parent.setdefault(int(p), set()).add(int(tid))
        return max((len(t) for t in per_parent.values()), default=0)
