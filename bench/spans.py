"""In-memory span recorder that wraps the package's public functions.

The benchmark measures layers from outside the package: it replaces
module attributes (and one method) with thin wrappers that record a span
per call, and puts the originals back afterwards.  The package looks its
collaborators up as module globals at call time, so a wrapper installed
on ``core.trs_batch`` also sees the calls ``core.predict_batch`` makes.
Names imported into another module (``calibration.trs_batch``,
``training.km_reduce_batch``) are separate attributes and are wrapped
there as well, under the name of the defining layer.

A span is ``(id, parent, op, group, name, start, end, rows)``.  ``op`` is
the id of the outermost call span, so every span caused by one ``train`` /
``calibrate_search`` / ``predict_batch`` / ``predict`` call shares it.
``group`` is the id of the benchmark-side span around it (one unit of
work, or the set-up), which has no ``op`` of its own.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows_of_first(args, kwargs):
    return len(args[0])


def _rows_of_y(args, kwargs):
    return len(args[2])


def targets(core, training, calibration):
    """(owner, attribute, span name, rows function) for every wrapped call."""
    return [
        (core, "pmf_batch", "core.pmf_batch", _rows_of_first),
        (core, "smf_bounds", "core.smf_bounds", None),
        (core, "firing_batch", "core.firing_batch", None),
        (core, "consequent_batch", "core.consequent_batch", None),
        (core, "km_reduce_batch", "core.km_reduce_batch", _rows_of_first),
        (training, "km_reduce_batch", "core.km_reduce_batch", _rows_of_first),
        (core, "trs_batch", "core.trs_batch", _rows_of_first),
        (calibration, "trs_batch", "core.trs_batch", _rows_of_first),
        (core, "predict_batch", "core.predict_batch", _rows_of_first),
        (core, "predict", "core.predict", None),
        (training, "train", "training.train", None),
        (training, "loss_and_grad", "training.loss_and_grad", None),
        (training, "adam_step", "training.adam_step", None),
        (training.RawParams, "constrain", "training.constrain", None),
        (calibration, "coverage_at_alpha", "calibration.coverage_at_alpha",
         _rows_of_y),
        (calibration, "calibrate_search", "calibration.calibrate_search", None),
        (calibration, "build_lookup_table", "calibration.build_lookup_table",
         None),
        (calibration, "lookup_alpha", "calibration.lookup_alpha", None),
    ]


class Tracer:
    """Records spans while installed; inert otherwise."""

    def __init__(self, wrap_targets):
        self._targets = wrap_targets
        self._saved = []
        self._stack = []
        self._next_id = 1
        self.spans = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name, rows=None, call=True):
        """Span of one call, or of a benchmark-side group when not ``call``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if not call:
            op = None
        else:
            op = parent[1] if parent and parent[1] is not None else sid
        group = parent[2] if parent else sid
        self._stack.append((sid, op, group))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent[0] if parent else None, op, group,
                               name, t0, t1, rows))

    def group(self, name):
        """Span around benchmark-side work: one unit, or the set-up."""
        return self.span(name, call=False)

    def _wrap(self, fn, name, rows_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = rows_fn(args, kwargs) if rows_fn else None
            with self.span(name, rows):
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, rows_fn in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, rows_fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def groups(self, name):
        """Ids of the outermost spans with a given name."""
        return [s[0] for s in self.spans if s[1] is None and s[4] == name]

    def summarize(self, group_ids):
        """Per-name calls, rows, total and self milliseconds over some groups.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap (one thread, nested
        calls), so the subtraction is exact.
        """
        wanted = set(group_ids)
        child_time = defaultdict(float)
        picked = [s for s in self.spans if s[3] in wanted]
        for sid, parent, op, group, name, t0, t1, rows in picked:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "rows": 0, "ms": 0.0,
                                   "self_ms": 0.0})
        for sid, parent, op, group, name, t0, t1, rows in picked:
            agg = out[name]
            agg["calls"] += 1
            agg["rows"] += rows or 0
            agg["ms"] += (t1 - t0) * 1e3
            agg["self_ms"] += (t1 - t0 - child_time[sid]) * 1e3
        return dict(out)

    def count_children(self, parent_name, child_name, group_ids):
        """How many ``child_name`` spans have a ``parent_name`` parent."""
        wanted = set(group_ids)
        names = {s[0]: s[4] for s in self.spans if s[3] in wanted}
        return sum(1 for s in self.spans
                   if s[3] in wanted and s[4] == child_name
                   and names.get(s[1]) == parent_name)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, group, name, t0, t1, rows in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "group": group, "name": name,
                                     "start": t0, "end": t1,
                                     "rows": rows}) + "\n")
