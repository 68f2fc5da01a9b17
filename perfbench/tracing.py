"""Layer spans for one ``cqmine mine`` run, recorded from outside the program.

Usage: python3 perfbench/tracing.py SPANS_JSON -- MINE_ARGS...

Runs ``cqmine.cli.main(["mine", *MINE_ARGS])`` in this process after
replacing every module-level binding of the layer functions in ``LAYER_FUNCTIONS``
with a wrapper that records a span.  A function imported with
``from .evaluation import support`` is bound once per importing module, so
each binding gets its own wrapper and its spans are named
``<module>.<function>@<importing module>``.  Spans (name, start, end,
parent) are kept in memory and written to SPANS_JSON when the run ends,
together with call counts, answer sizes, ``lru_cache`` statistics and the
cyclic garbage collector's time.  The last line on stdout is
``{"main_s": ..., "dump_s": ...}``: the in-process time of ``cli.main`` and
of writing SPANS_JSON, so the caller can subtract the dump from the wall time.

``self_times`` and ``aggregate`` turn a span list into per-layer self time:
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

# Public functions at each layer boundary, as module.function under cqmine.
LAYER_FUNCTIONS = (
    "relational.load_schema",
    "relational.load_instance",
    "evaluation.evaluate",
    "evaluation.support",
    "evaluation.support_grouped",
    "queries.canonical_form",
    "containment.minimize",
    "containment.is_diagonally_contained",
    "phase1.run_phase1",
    "phase1.specializations",
    "phase1.immediate_generalizations",
    "phase2.run_phase2",
    "reports.frequent_report_lines",
    "reports.rule_report_lines",
    "reports.run_dump",
    "reports.dump_json",
)
# Functions whose result length is summed, e.g. answer tuples returned.
SIZED = {"evaluation.evaluate"}
# lru_cache-wrapped functions whose cache_info() is reported.
CACHED = ("queries.canonical_form", "containment.minimize")


class Tracer:
    """Spans in parallel arrays; parent -1 marks a root span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sizes: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, sized: bool = False) -> Callable:
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock, open_spans = self.clock, self._open
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()
            if sized:
                self.sizes[name] += len(result)
            return result

        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def aggregate(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, dict]:
    """Calls, total time and self time per span name."""
    totals: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return totals


def by_layer(totals: dict[str, dict], layer: str, site: str | None = None) -> dict:
    """Sum the ``layer@site`` entries of ``aggregate`` over sites, or one site."""
    out = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for name, entry in totals.items():
        span_layer, _, span_site = name.partition("@")
        if span_layer == layer and site in (None, span_site):
            for key in out:
                out[key] += entry[key]
    return out


def _lookup(layer: str):
    module, _, function = layer.partition(".")
    return getattr(sys.modules.get(f"cqmine.{module}"), function, None)


def install(tracer: Tracer) -> list[str]:
    """Rebind every module-level reference to a layer function to a wrapper.

    Covers the modules of cqmine imported so far.  Returns the layer
    functions that could not be found, so a caller can warn that their spans
    are missing.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("cqmine.")]
    missing = []
    for layer in LAYER_FUNCTIONS:
        original = _lookup(layer)
        if original is None:
            missing.append(layer)
            continue
        for module in modules:
            site = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if value is original:
                    wrapper = tracer.wrap(f"{layer}@{site}", original, layer in SIZED)
                    setattr(module, attr, wrapper)
    return missing


class GcTimer:
    """Time spent in the cyclic garbage collector, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2 += 1


def main(argv: list[str]) -> int:
    spans_path, separator, *mine_args = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS_JSON -- MINE_ARGS...")
    import cqmine.cli

    cached = {layer: _lookup(layer) for layer in CACHED}
    tracer = Tracer()
    for layer in install(tracer):
        print(f"warning: {layer} not found; its spans are missing", file=sys.stderr)
    gc_timer = GcTimer()
    gc.callbacks.append(gc_timer)
    started = time.perf_counter()
    code = cqmine.cli.main(["mine", *mine_args])
    main_s = time.perf_counter() - started
    gc.callbacks.remove(gc_timer)

    caches = {}
    for layer, fn in cached.items():
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            caches[layer] = {"hits": info.hits, "misses": info.misses,
                             "entries": info.currsize}
    payload = {
        "names": tracer.names,
        "span_name": tracer.span_name.tolist(),
        "start": tracer.start.tolist(),
        "end": tracer.end.tolist(),
        "parent": tracer.parent.tolist(),
        "sizes": dict(tracer.sizes),
        "caches": caches,
        "gc_s": gc_timer.seconds,
        "gc_gen2": gc_timer.gen2,
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    dump_s = time.perf_counter() - started - main_s
    print(json.dumps({"main_s": main_s, "dump_s": dump_s}))
    return code


def load_spans(path: str | Path) -> tuple[list[tuple[str, float, float, int]], dict]:
    """The spans written by ``main`` and the rest of its payload."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    names = payload.pop("names")
    spans = [
        (names[n], s, e, p)
        for n, s, e, p in zip(payload.pop("span_name"), payload.pop("start"),
                              payload.pop("end"), payload.pop("parent"))
    ]
    return spans, payload


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
