"""In-memory span tracing of the program's public entry points.

`Tracer.install()` wraps the layer boundaries listed in LAYERS from the
outside (module attributes and class methods), so the program itself is
unchanged. Each call records a span (name, start, end, parent); every
workload unit runs inside a root span that carries the run id. Self time of
a span is its duration minus the durations of its direct children, so the
self times of one run's spans add up to the run's wall time.

`harness.build_report` has no entry point of its own: it is inferred as the
interval from the end of the scenario loop's last wrapped call to the call
of `write_artifacts` (or to the return of `run_scenario`).
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from shankexo import controller, gait_signals, harness, plant, profile

# (span name, owner, attribute). Owners that no longer carry the attribute
# are skipped, which leaves that layer at zero calls.
LAYERS = (
    ("plant.advance", plant.GaitWorld, "advance"),
    ("plant.step_cable", plant.GaitWorld, "step_cable"),
    ("plant.biological_torque", harness, "biological_torque"),
    ("plant.build_template", harness, "build_template"),
    ("plant.build_template", plant, "build_template"),
    ("controller.tick", controller.Controller, "tick"),
    ("controller.on_event", controller.Controller, "on_event"),
    ("profile.eval_force", harness, "eval_force"),
    ("profile.eval_force", controller, "eval_force"),
    ("gait_signals.assembler", gait_signals.WindowAssembler, "process"),
)

ROOT_SCENARIO = "harness.run_scenario"
ROOT_REPLAY = "replay.stream"
BUILD_REPORT = "harness.build_report"
WRITE_ARTIFACTS = "harness.write_artifacts"
# A span's self time may read below zero by clock granularity only.
SELF_TIME_SLACK_S = 1e-6


class AccountingError(RuntimeError):
    """A span leaves its parent's interval or overlaps a sibling, so self
    times would not add up to the traced wall time of a run."""


class Tracer:
    """Span recorder and the per-layer totals folded from its runs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_bounds: list[tuple[int, int]] = []   # kept runs' span ranges
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self.keep = True
        self._undo: list[tuple[object, str, object]] = []
        self._pending: list[int] = []

    # -- recording -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, parent: int, t0: float, t1: float) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)
        return i

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            stack.append(i)
            start.append(clock())
            end.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, owner, attr in LAYERS:
            if attr in owner.__dict__:
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        counts = self.counts

        update = self.wrap("gait_signals.detector",
                           gait_signals.EventDetector.update)

        def detector_update(det, sample):
            ev = update(det, sample)
            if ev is not None:
                counts["gait_signals.detector.events"] += 1
            return ev
        self._patch(gait_signals.EventDetector, "update", detector_update)

        estimate = self.wrap("profile.estimator",
                             profile.ProfileEstimator.update_from_window)

        def estimator_update(est, window):
            p = estimate(est, window)
            counts["profile.estimator.attempts"] += 1
            counts["profile.estimator.accepted"] += bool(
                getattr(est, "last_accepted", False))
            return p
        self._patch(profile.ProfileEstimator, "update_from_window",
                    estimator_update)

        write = self.wrap(WRITE_ARTIFACTS, harness.write_artifacts)

        def write_artifacts(out_dir, *args, **kwargs):
            write(out_dir, *args, **kwargs)
            for f in Path(out_dir).iterdir():
                counts["harness.write_artifacts.bytes"] += f.stat().st_size
        self._patch(harness, "write_artifacts", write_artifacts)

        read_next = self.wrap("gait_signals.replay_read", next)
        reader = gait_signals.read_replay_csv

        def read_replay_csv(*args, **kwargs):
            it = reader(*args, **kwargs)
            while True:
                try:
                    yield read_next(it)
                except StopIteration:
                    return
        self._patch(gait_signals, "read_replay_csv", read_replay_csv)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- runs ------------------------------------------------------------------

    def run(self, root: str, fn, *args):
        """Call fn inside a root span; `fold` later adds it to the totals."""
        t0 = time.perf_counter()
        lo = self._open(self._nid(root), self.stack[-1], t0, t0)
        self.stack.append(lo)
        try:
            return fn(*args)
        finally:
            self.end[lo] = time.perf_counter()
            self.stack.pop()
            if root == ROOT_SCENARIO:
                self._infer_build_report(lo)
            self._pending.append(lo)

    def fold(self) -> None:
        """Add the runs made since the last fold to the per-layer totals;
        spans are kept only while `keep` is set."""
        ends = self._pending[1:] + [len(self.start)]
        for lo, hi in reversed(list(zip(self._pending, ends))):
            self._fold(lo, hi)
        self._pending.clear()

    def _infer_build_report(self, lo: int) -> None:
        ids = np.array(self.name_id[lo + 1:], dtype=np.int64)
        kids = np.flatnonzero(np.array(self.parent[lo + 1:]) == lo) + lo + 1
        write_id = self._ids.get(WRITE_ARTIFACTS)
        is_write = ids[kids - lo - 1] == write_id
        loop = kids[~is_write]
        loop_end = self.end[int(loop[-1])] if len(loop) else self.start[lo]
        report_end = (self.start[int(kids[is_write][0])] if is_write.any()
                      else self.end[lo])
        self._open(self._nid(BUILD_REPORT), lo, loop_end, report_end)

    def _fold(self, lo: int, hi: int) -> None:
        ids = np.array(self.name_id[lo:hi], dtype=np.int64)
        par = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        start = np.array(self.start[lo:hi])
        end = np.array(self.end[lo:hi])
        dur = end - start
        n = hi - lo
        child = np.bincount(par[1:], weights=dur[1:], minlength=n)
        self_s = dur - child
        wall = float(dur[0])
        slack = SELF_TIME_SLACK_S
        outside = ((start[1:] < start[par[1:]] - slack)
                   | (end[1:] > end[par[1:]] + slack))
        if float(self_s.min()) < -slack or outside.any():
            raise AccountingError(
                f"spans of run {len(self.run_bounds)} overlap or leave "
                "their parent")
        busy = np.bincount(ids, weights=self_s, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        for k, name in enumerate(self.names):
            if calls[k]:
                self.busy[name] += float(busy[k])
                self.calls[name] += int(calls[k])
        self.wall_s += wall
        if self.keep:
            self.run_bounds.append((lo, hi))
        else:
            for a in (self.name_id, self.parent, self.start, self.end):
                del a[lo:hi]

    def dump(self, path: Path) -> None:
        """Write the kept spans: name, start, end, parent and run id."""
        bounds = sorted(self.run_bounds)
        hi = bounds[-1][1] if bounds else 0
        run = np.full(hi, -1, dtype=np.int32)
        for r, (lo, end) in enumerate(bounds):
            run[lo:end] = r
        os.makedirs(path.parent, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id[:hi], dtype=np.uint16),
                 start=np.array(self.start[:hi]), end=np.array(self.end[:hi]),
                 parent=np.array(self.parent[:hi], dtype=np.int32), run=run)
