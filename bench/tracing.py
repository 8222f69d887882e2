"""Span tracing around the public entry points of each omitbench layer.

A traced run rebinds every module attribute that refers to a traced function
(the defining module and each consumer that imported the name) to a timing
wrapper.  Each call records one span: name, start, end, parent span, the
cycle (fit, job or session) it belongs to, the exception it raised if any,
and one integer of work (points, cells, bytes, iterations).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cycle: int | None
    error: str | None
    work: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _points(args, kwargs, result):
    return int(getattr(args[0], "size", 1))


def _map_cells(args, kwargs, result):
    return int(result.s21_mag.size) if result is not None else 0


def _iterations(args, kwargs, result):
    return int(result.iterations) if result is not None else 0


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# Traced entry points: span name -> (defining module, attribute, work counter).
# Readers count the bytes of the file they are given; writers the bytes they
# left on disk.
TARGETS = {
    "model.probe_transmission": ("omitbench.model", "probe_transmission", _points),
    "fitting.fit": ("omitbench.fitting", "fit", _iterations),
    "fitting.residuals": ("omitbench.fitting", "residuals", None),
    "fitting.extract_linewidth": ("omitbench.fitting", "extract_linewidth", None),
    "sweeps.simulate_map": ("omitbench.sweeps", "simulate_map", _map_cells),
    "sweeps.emulate_protocol": ("omitbench.sweeps", "emulate_protocol", None),
    "datafiles.write_map": ("omitbench.datafiles", "write_map", _file_size),
    "datafiles.read_map": ("omitbench.datafiles", "read_map", _file_size),
    "datafiles.write_dataset": ("omitbench.datafiles", "write_dataset", _file_size),
    "datafiles.read_dataset": ("omitbench.datafiles", "read_dataset", _file_size),
    "datafiles.write_fit_report": ("omitbench.datafiles", "write_fit_report", _file_size),
    "datafiles.write_residual_csv": ("omitbench.datafiles", "write_residual_csv", _file_size),
    "svgmap.render_heatmap": ("omitbench.svgmap", "render_heatmap", None),
    "config.load_config": ("omitbench.config", "load_config", None),
}

WRITERS = ("datafiles.write_map", "datafiles.write_dataset",
           "datafiles.write_fit_report", "datafiles.write_residual_csv")
READERS = ("datafiles.read_map", "datafiles.read_dataset")


class Tracer:
    """Records spans while installed and ``active``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.cycle: int | None = None
        self.active = False
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, error, work):
        self._stack.pop()
        self.spans[sid] = Span(name, start, end, parent, self.cycle, error, work)

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                count = work(args, kwargs, result) if work and error is None else 0
                self._close(sid, parent, name, start, end, error, count)

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around benchmark-side code."""
        sid, parent = self._open()
        error = None
        start = perf_counter()
        try:
            yield
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(sid, parent, name, start, perf_counter(), error, 0)

    def install(self):
        """Rebind every omitbench module attribute that refers to a target."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "omitbench" or n.startswith("omitbench.")]
        for name, (module, attr, work) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def dump(self, path):
        """Write all spans as JSON lines, one per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **asdict(span)}) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans are recorded on one thread, so the children of a span never
    overlap and their durations add up.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], cycles: list[int]) -> dict[str, float]:
    """Per-layer figures for one workload.

    Counts and times are totals per cycle, reported as the median over the
    traced cycles (``median_low`` for counts, so they stay integers that
    repeat exactly for a fixed seed).  Rates divide totals over all traced
    cycles.
    """
    own = self_seconds(spans)
    per_cycle = {c: {} for c in cycles}

    def add(cycle, key, value):
        bucket = per_cycle[cycle]
        bucket[key] = bucket.get(key, 0) + value

    for s, self_s in zip(spans, own):
        if s.cycle not in per_cycle:
            continue
        add(s.cycle, s.name + ":n", 1)
        add(s.cycle, s.name + ":s", s.seconds)
        add(s.cycle, s.name + ":self", self_s)
        add(s.cycle, s.name + ":work", s.work)
        if s.error is not None:
            add(s.cycle, s.name + ":err", 1)
        io = "write" if s.name in WRITERS else "read" if s.name in READERS else None
        if io:
            add(s.cycle, io + ":s", s.seconds)
            add(s.cycle, io + ":bytes", s.work)

    def med(key, integer=False):
        values = [b.get(key, 0) for b in per_cycle.values()]
        return int(statistics.median_low(values)) if integer else float(statistics.median(values))

    def total(key):
        return sum(b.get(key, 0) for b in per_cycle.values())

    def rate(num, den, scale=1.0):
        return num * scale / den if den > 0 else 0.0

    return {
        "model.calls": med("model.probe_transmission:n", True),
        "model.points": med("model.probe_transmission:work", True),
        "model.s": med("model.probe_transmission:s"),
        "model.ns_per_point": rate(total("model.probe_transmission:s"),
                                   total("model.probe_transmission:work"), 1e9),
        "fitting.residual_evals": med("fitting.residuals:n", True),
        "fitting.iterations": med("fitting.fit:work", True),
        "fitting.residual_s": med("fitting.residuals:s"),
        "fitting.lm_self_s": med("fitting.fit:self"),
        "fitting.extract_linewidth_s": med("fitting.extract_linewidth:s"),
        "fitting.linewidth_failed": med("fitting.extract_linewidth:err", True),
        "sweeps.simulate_map_s": med("sweeps.simulate_map:s"),
        "sweeps.map_cells_per_s": rate(total("sweeps.simulate_map:work"),
                                       total("sweeps.simulate_map:s")),
        "sweeps.emulate_protocol_s": med("sweeps.emulate_protocol:s"),
        "datafiles.write_map_s": med("datafiles.write_map:s"),
        "datafiles.read_map_s": med("datafiles.read_map:s"),
        "datafiles.write_dataset_s": med("datafiles.write_dataset:s"),
        "datafiles.read_dataset_s": med("datafiles.read_dataset:s"),
        "datafiles.bytes_written": med("write:bytes", True),
        "datafiles.bytes_read": med("read:bytes", True),
        "datafiles.write_mb_per_s": rate(total("write:bytes"), total("write:s"), 1e-6),
        "datafiles.read_mb_per_s": rate(total("read:bytes"), total("read:s"), 1e-6),
        "svgmap.render_heatmap_s": med("svgmap.render_heatmap:s"),
        "config.load_config_s": med("config.load_config:s"),
    }
