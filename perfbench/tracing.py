"""Traced-run mode: wrap each layer's public entry points from outside.

:class:`Ledger` monkeypatches the module- and class-level callables
listed in :data:`TARGETS` for the duration of one traced round and
restores them afterwards; nothing under ``src/`` knows it is traced.

Two kinds of record are kept, both in per-thread buffers so shard
threads never contend on a bench lock:

* **aggregates** for per-beacon calls (``submit``, ``put``, ``get``,
  ``observe``, ``append``, ...): call count and summed seconds, plus
  optional per-call samples for percentiles;
* **spans** for coarse calls (``detect``, ``compare``, kernels,
  ``flush``, ``run``, ...): id, parent, name, start, end and thread,
  held in memory and written as JSONL when the run ends.

Every record is tagged with the bench phase that was current when it
was made (``replay``, ``closed``, ``open``, ``cell``, ...), so a metric
can be taken over the pass it describes.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter

#: ``(module, attribute path, record name, kind)``.  ``kind`` is
#: ``"agg"`` (count + seconds), ``"agg+"`` (also per-call samples),
#: ``"span"``, or ``"put"``/``"get"`` for the queue, which also record
#: depth, blocking and put-to-get wait.  Module-level functions are
#: patched in every module that calls them by a global name.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # serve.service / serve.qos
    ("repro.serve.service", "DetectionService.submit", "serve.submit", "agg+"),
    ("repro.serve.service", "DetectionService.flush", "serve.flush", "span"),
    ("repro.serve.qos", "BoundedQueue.put", "qos.put", "put"),
    ("repro.serve.qos", "BoundedQueue.get", "qos.get", "get"),
    ("repro.serve.qos", "ReportBus.publish", "qos.publish", "span"),
    # core.pipeline / confirmation / density
    ("repro.core.pipeline", "OnlineVoiceprint.on_beacon", "pipeline.on_beacon", "agg"),
    ("repro.core.confirmation", "MultiPeriodConfirmer.update", "confirm", "agg"),
    ("repro.core.density", "DensityEstimator.estimate", "confirm.density", "agg"),
    # core.timeseries / detector
    ("repro.core.detector", "VoiceprintDetector.observe", "collect.observe", "agg"),
    ("repro.core.timeseries", "RSSITimeSeries.append", "collect.append", "agg"),
    ("repro.core.timeseries", "RSSITimeSeries.window", "collect.window", "agg"),
    ("repro.core.detector", "VoiceprintDetector.detect", "detect", "span"),
    # compare: engine entry points and kernels
    ("repro.core.pairwise", "PairwiseEngine.compare", "compare", "span"),
    ("repro.core.pairwise", "PairwiseEngine.compare_decided", "compare", "span"),
    ("repro.core.pairwise", "PairwiseEngine.compare_incremental", "compare", "span"),
    ("repro.core.pairwise", "dtw_banded_batch", "kernel.batch", "span"),
    ("repro.core.pairwise", "dtw_banded_batch_abandon", "kernel.abandon", "span"),
    ("repro.core.pairwise", "abandon_batch_native", "kernel.native", "span"),
    ("repro.core.pairwise", "dtw_banded_fast", "kernel.scalar", "agg"),
    ("repro.core.detector", "dtw_banded_fast", "kernel.scalar", "agg"),
    # sim / net
    ("repro.sim.simulator", "HighwaySimulator.run", "sim.run", "span"),
    ("repro.net.channel", "VANETChannel.deliver", "sim.deliver", "agg"),
    ("repro.net.mac", "CellularCsmaMac.schedule_interval", "sim.mac", "agg"),
    # eval.runner
    ("repro.eval.runner", "run_voiceprint", "eval.replay", "span"),
    ("repro.eval.runner", "heard_in_window", "eval.heard", "agg"),
)

#: Span names whose results carry work counts worth keeping.
_BATCH_KERNELS = ("kernel.batch", "kernel.abandon", "kernel.native")


class _Buffer:
    """One thread's records."""

    __slots__ = ("thread", "agg", "samples", "spans", "stack", "counts", "maxima")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        # (phase, name) -> [calls, seconds]
        self.agg: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.maxima: Dict[Tuple[str, str], float] = defaultdict(float)


class Ledger:
    """Per-layer counters and spans for one traced round."""

    def __init__(self) -> None:
        self.phase = "setup"
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []
        # put -> get stamps keyed by id(item); an item is alive (so its
        # id is unique) for as long as it sits in the queue.
        self._put_stamps: Dict[int, float] = {}

    # -- buffers -------------------------------------------------------
    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    # -- wrappers ------------------------------------------------------
    def _agg(self, name: str, fn: Callable, keep_samples: bool) -> Callable:
        ledger = self

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                buf = ledger._buf()
                key = (ledger.phase, name)
                rec = buf.agg[key]
                rec[0] += 1
                rec[1] += elapsed
                if keep_samples:
                    buf.samples[key].append(elapsed)

        return wrapper

    def _span(self, name: str, fn: Callable) -> Callable:
        ledger = self

        def wrapper(*args, **kwargs):
            buf = ledger._buf()
            parent = buf.stack[-1] if buf.stack else 0
            span_id = next(ledger._ids)
            buf.stack.append(span_id)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                buf.stack.pop()
                buf.spans.append(
                    (span_id, parent, name, start, end, ledger.phase)
                )
            ledger._on_result(buf, name, args, result)
            return result

        return wrapper

    def _on_result(self, buf: _Buffer, name: str, args: tuple, result: Any) -> None:
        phase = self.phase
        if name == "compare":
            stats = result[-1]
            for field in (
                "pairs", "exact", "pruned", "incremental", "abandoned",
                "cells", "cache_hits", "envelope_updates",
            ):
                buf.counts[(phase, f"compare.{field}")] += getattr(stats, field)
        elif name in _BATCH_KERNELS:
            pairs = len(args[0]) if name != "kernel.native" else args[0].shape[0]
            buf.counts[(phase, f"{name}.pairs")] += pairs

    def _put(self, fn: Callable) -> Callable:
        ledger = self

        def put(queue, item, *args, **kwargs):
            buf = ledger._buf()
            key = (ledger.phase, "qos.put")
            depth = len(queue)
            if depth > buf.maxima[key]:
                buf.maxima[key] = depth
            ledger._put_stamps[id(item)] = _clock()
            start = _clock()
            ok = fn(queue, item, *args, **kwargs)
            elapsed = _clock() - start
            rec = buf.agg[key]
            rec[0] += 1
            rec[1] += elapsed
            if depth >= queue.depth:
                buf.counts[(ledger.phase, "qos.put_blocked_s")] += elapsed
            if not ok:
                ledger._put_stamps.pop(id(item), None)
            return ok

        return put

    def _get(self, fn: Callable) -> Callable:
        ledger = self

        def get(queue, *args, **kwargs):
            buf = ledger._buf()
            empty = len(queue) == 0
            start = _clock()
            item = fn(queue, *args, **kwargs)
            end = _clock()
            key = (ledger.phase, "qos.get")
            rec = buf.agg[key]
            rec[0] += 1
            rec[1] += end - start
            if empty:
                buf.counts[(ledger.phase, "qos.get_idle_s")] += end - start
            if item is not None:
                stamp = ledger._put_stamps.pop(id(item), None)
                if stamp is not None:
                    buf.samples[(ledger.phase, "qos.queue_wait")].append(end - stamp)
            return item

        return get

    def wrap_source(self, name: str, iterable: Iterable) -> Iterable:
        """Time each ``next()`` of a generator (e.g. ``read_jsonl``)."""
        iterator = iter(iterable)
        while True:
            start = _clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                buf = self._buf()
                rec = buf.agg[(self.phase, name)]
                rec[1] += _clock() - start
            rec[0] += 1
            yield item

    # -- install / uninstall ------------------------------------------
    def install(self) -> "Ledger":
        for module_name, path, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if kind == "span":
                wrapped = self._span(name, original)
            elif kind == "put":
                wrapped = self._put(original)
            elif kind == "get":
                wrapped = self._get(original)
            else:
                wrapped = self._agg(name, original, kind == "agg+")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------
    def calls(self, name: str, phases: Optional[Iterable[str]] = None) -> Tuple[int, float]:
        """``(calls, seconds)`` summed over threads for the phases."""
        calls, seconds = 0, 0.0
        for buf in self._buffers:
            for (phase, key), (n, s) in buf.agg.items():
                if key == name and (phases is None or phase in phases):
                    calls += n
                    seconds += s
        return calls, seconds

    def calls_by_thread(self, name: str, prefix: str, phases: Iterable[str]) -> float:
        """Seconds in ``name`` on threads whose name starts with ``prefix``."""
        return sum(
            s
            for buf in self._buffers
            if buf.thread.startswith(prefix)
            for (phase, key), (_, s) in buf.agg.items()
            if key == name and phase in phases
        )

    def samples(self, name: str, phases: Optional[Iterable[str]] = None) -> List[float]:
        return [
            v
            for buf in self._buffers
            for (phase, key), values in buf.samples.items()
            if key == name and (phases is None or phase in phases)
            for v in values
        ]

    def counter(self, name: str, phases: Optional[Iterable[str]] = None) -> float:
        return sum(
            v
            for buf in self._buffers
            for (phase, key), v in buf.counts.items()
            if key == name and (phases is None or phase in phases)
        )

    def maximum(self, name: str, phases: Optional[Iterable[str]] = None) -> float:
        return max(
            (
                v
                for buf in self._buffers
                for (phase, key), v in buf.maxima.items()
                if key == name and (phases is None or phase in phases)
            ),
            default=0.0,
        )

    def spans(self) -> List[dict]:
        out = []
        for buf in self._buffers:
            for span_id, parent, name, start, end, phase in buf.spans:
                out.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "phase": phase,
                        "thread": buf.thread,
                    }
                )
        out.sort(key=lambda s: s["start"])
        return out

    def span_times(
        self, name: str, phases: Optional[Iterable[str]] = None
    ) -> Tuple[List[float], float]:
        """Durations of the ``name`` spans and their summed self time."""
        spans = self.spans()
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"]:
                child_time[span["parent"]] += span["end"] - span["start"]
        durations = []
        self_time = 0.0
        for span in spans:
            if span["name"] == name and (phases is None or span["phase"] in phases):
                duration = span["end"] - span["start"]
                durations.append(duration)
                self_time += duration - child_time[span["id"]]
        return durations, self_time

    def dump(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        spans = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)
