"""Span tracing of one dialign CLI run, and the per-layer metrics from it.

The traced child process calls ``install`` before ``dialign.cli.main``:
each entry point below is replaced, where the calling module binds it,
by a wrapper that records a span (name, start, end, parent, run id).
Spans stay in memory and are written as JSON when the run ends. Counts
that need the call arguments (DP cells, distinct inputs) are taken from
references kept during the run and computed after the root span closes,
so they add nothing to the timed spans.

The parent benchmark process turns the written spans into the per-layer
metrics with ``layer_metrics``. A layer's self time is its span time
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

ROOT_SPAN = "cli.main"

# (module, attribute, span name). The attribute is replaced in the module
# that calls it, so calls made through other bindings are not traced.
ENTRY_POINTS = (
    ("dialign.cli", "ingest", "corpus.ingest"),
    ("dialign.cli", "pair", "corpus.pair"),
    ("dialign.corpus", "make_transcription", "phonetics.make_transcription"),
    ("dialign.pmi", "induce_distances", "pmi.induce_distances"),
    ("dialign.pmi", "align_pair", "pairwise.align_pair"),
    ("dialign.cli", "align_triple", "triple.align_triple"),
    ("dialign.cli", "decompose", "triple.decompose"),
    ("dialign.analysis", "summarize", "analysis.summarize"),
    ("dialign.analysis", "permutation_contrast", "analysis.permutation_contrast"),
    ("dialign.analysis", "export_geo", "analysis.export_geo"),
)

# Results of these are not kept: they are large and counted from arguments.
_DROP_RESULT = {"pairwise.align_pair", "triple.align_triple"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.calls: dict[str, list] = {}  # span name -> [(args, kwargs, result)]
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, calls = self.spans, self._stack, self.calls.setdefault(name, [])
        keep_result = name not in _DROP_RESULT
        run_id = self.run_id

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            calls.append((args, kwargs, result if keep_result else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(fn, name))

    def counts(self) -> dict:
        """Work counts from the recorded calls; None where they cannot be taken."""
        out = {}
        for key, (name, count) in _COUNTS.items():
            try:
                out[key] = count(self.calls.get(name, []))
            except (AttributeError, TypeError, IndexError, KeyError) as exc:
                print(f"tracer: cannot count {key}: {exc!r}", file=sys.stderr)
                out[key] = None
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counts": self.counts(),
                    "missing": self.missing,
                },
                f,
            )


def _symbols(s) -> tuple[str, ...]:
    segments = s.segments if hasattr(s, "segments") else s
    return tuple(seg.symbol for seg in segments)


def _cells(calls, arity: int) -> int:
    total = 0
    for args, _, _ in calls:
        n = 1
        for s in args[:arity]:
            n *= len(s) + 1
        total += n
    return total


def _distinct(calls, arity: int) -> int:
    return len({tuple(_symbols(s) for s in args[:arity]) for args, _, _ in calls})


_COUNTS = {
    "corpus.records": ("corpus.ingest", lambda c: sum(len(r) for _, _, r in c)),
    "corpus.triples": ("corpus.pair", lambda c: sum(len(r[0]) for _, _, r in c)),
    "corpus.excluded": ("corpus.pair", lambda c: sum(len(r[1]) for _, _, r in c)),
    "phonetics.segments": (
        "phonetics.make_transcription",
        lambda c: sum(len(r) for _, _, r in c),
    ),
    "pmi.pairs": ("pmi.induce_distances", lambda c: sum(len(a[0]) for a, _, _ in c)),
    "pmi.iterations": (
        "pmi.induce_distances",
        lambda c: sum(r.iterations_run for _, _, r in c),
    ),
    "pairwise.cells": ("pairwise.align_pair", lambda c: _cells(c, 2)),
    "pairwise.distinct": ("pairwise.align_pair", lambda c: _distinct(c, 2)),
    "triple.cells": ("triple.align_triple", lambda c: _cells(c, 3)),
    "triple.distinct": ("triple.align_triple", lambda c: _distinct(c, 3)),
    "analysis.permutations": (
        "analysis.permutation_contrast",
        lambda c: sum(k["n_perm"] for _, k, _ in c),
    ),
}


def run_traced(cli_args: list[str], trace_path: str, run_id: str) -> int:
    """Run ``dialign.cli.main`` under a root span and write the trace."""
    import dialign.cli

    tracer = Tracer(run_id)
    tracer.install()
    main = tracer.wrap(dialign.cli.main, ROOT_SPAN)
    try:
        return main(cli_args)
    finally:
        tracer.dump(trace_path)


# ---------------------------------------------------------------------------
# Parent side: spans -> per-layer metrics.

# (metric, unit, better, span names it is measured from). The span names
# decide when the metric is unobserved.
PER_LAYER = (
    ("triple.align_triple.calls", "count", "lower", ("triple.align_triple",)),
    ("triple.align_triple.s", "s", "lower", ("triple.align_triple",)),
    ("triple.align_triple.p50_ms", "ms", "lower", ("triple.align_triple",)),
    ("triple.align_triple.tail_ms", "ms", "lower", ("triple.align_triple",)),
    ("triple.cells", "count", "lower", ("triple.align_triple",)),
    ("triple.cells_per_s", "1/s", "higher", ("triple.align_triple",)),
    ("triple.distinct_ratio", "ratio", "higher", ("triple.align_triple",)),
    ("triple.decompose.s", "s", "lower", ("triple.decompose",)),
    ("pairwise.align_pair.calls", "count", "lower", ("pairwise.align_pair",)),
    ("pairwise.align_pair.s", "s", "lower", ("pairwise.align_pair",)),
    ("pairwise.align_pair.p50_ms", "ms", "lower", ("pairwise.align_pair",)),
    ("pairwise.align_pair.tail_ms", "ms", "lower", ("pairwise.align_pair",)),
    ("pairwise.cells", "count", "lower", ("pairwise.align_pair",)),
    ("pairwise.cells_per_s", "1/s", "higher", ("pairwise.align_pair",)),
    ("pairwise.distinct_ratio", "ratio", "higher", ("pairwise.align_pair",)),
    ("pmi.induce_distances.self_s", "s", "lower", ("pmi.induce_distances",)),
    ("pmi.iterations", "count", "lower", ("pmi.induce_distances",)),
    ("pmi.pairs", "count", "lower", ("pmi.induce_distances",)),
    (
        "phonetics.make_transcription.calls",
        "count",
        "lower",
        ("phonetics.make_transcription",),
    ),
    ("phonetics.make_transcription.s", "s", "lower", ("phonetics.make_transcription",)),
    ("phonetics.segments", "count", "lower", ("phonetics.make_transcription",)),
    ("corpus.ingest.s", "s", "lower", ("corpus.ingest",)),
    ("corpus.pair.self_s", "s", "lower", ("corpus.pair",)),
    ("corpus.records", "count", "lower", ("corpus.ingest",)),
    ("corpus.triples", "count", "lower", ("corpus.pair",)),
    ("corpus.excluded", "count", "lower", ("corpus.pair",)),
    (
        "analysis.permutation_contrast.s",
        "s",
        "lower",
        ("analysis.permutation_contrast",),
    ),
    ("analysis.perms_per_s", "1/s", "higher", ("analysis.permutation_contrast",)),
    ("analysis.summarize.s", "s", "lower", ("analysis.summarize",)),
    ("analysis.export_geo.s", "s", "lower", ("analysis.export_geo",)),
    ("cli.self_s", "s", "lower", (ROOT_SPAN,)),
    ("cli.bytes_written", "bytes", "lower", (ROOT_SPAN,)),
    ("cli.cpu_s", "s", "lower", (ROOT_SPAN,)),
    ("cli.tracing_overhead_s", "s", "lower", (ROOT_SPAN,)),
)

# Value of a metric whose entry point is missing, or was never called on a
# workload that must reach it. It is never a valid measurement.
UNOBSERVED = -1.0

LAYERS = ("triple", "pairwise", "pmi", "phonetics", "corpus", "analysis", "cli")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, [])):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    99.9/99/95/90/50 that leaves at least ten samples beyond it. With fewer
    than 20 samples the median is returned with what lies beyond it."""
    values = sorted(values)
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= 10:
            break
    return pct, values[n - beyond - 1], beyond


def layer_metrics(trace: dict, expected_spans, bytes_written: int, cpu_s: float):
    """Per-layer metrics of one traced run.

    Returns (metrics, layer self times, unobserved span names, tail notes).
    """
    spans = trace["spans"]
    counts = trace["counts"]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, []))

    def self_total(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def durations_ms(name):
        return [(spans[i][2] - spans[i][1]) * 1e3 for i in by_name.get(name, [])]

    def rate(count, seconds):
        return count / seconds if count and seconds > 0 else 0.0

    notes = {}
    values = {}
    for prefix, name in (
        ("triple", "triple.align_triple"),
        ("pairwise", "pairwise.align_pair"),
    ):
        d = durations_ms(name)
        calls = len(d)
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total(name)
        values[f"{name}.p50_ms"] = statistics.median(d) if d else 0.0
        if d:
            pct, values[f"{name}.tail_ms"], beyond = tail(d)
            notes[f"{name}.tail_ms"] = f"p{pct:g} of {calls} calls, {beyond} beyond"
        else:
            values[f"{name}.tail_ms"] = 0.0
        cells = counts.get(f"{prefix}.cells")
        distinct = counts.get(f"{prefix}.distinct")
        values[f"{prefix}.cells"] = cells
        values[f"{prefix}.cells_per_s"] = (
            None if cells is None else rate(cells, total(name))
        )
        values[f"{prefix}.distinct_ratio"] = (
            None if distinct is None else (distinct / calls if calls else 0.0)
        )
    values["triple.decompose.s"] = total("triple.decompose")
    values["pmi.induce_distances.self_s"] = self_total("pmi.induce_distances")
    values["pmi.iterations"] = counts.get("pmi.iterations")
    values["pmi.pairs"] = counts.get("pmi.pairs")
    values["phonetics.make_transcription.calls"] = len(
        by_name.get("phonetics.make_transcription", [])
    )
    values["phonetics.make_transcription.s"] = total("phonetics.make_transcription")
    values["phonetics.segments"] = counts.get("phonetics.segments")
    values["corpus.ingest.s"] = total("corpus.ingest")
    values["corpus.pair.self_s"] = self_total("corpus.pair")
    for key in ("corpus.records", "corpus.triples", "corpus.excluded"):
        values[key] = counts.get(key)
    values["analysis.permutation_contrast.s"] = total("analysis.permutation_contrast")
    perms = counts.get("analysis.permutations")
    values["analysis.perms_per_s"] = (
        None if perms is None else rate(perms, total("analysis.permutation_contrast"))
    )
    values["analysis.summarize.s"] = total("analysis.summarize")
    values["analysis.export_geo.s"] = total("analysis.export_geo")
    values["cli.self_s"] = self_total(ROOT_SPAN)
    values["cli.bytes_written"] = bytes_written
    values["cli.cpu_s"] = cpu_s

    missing = set(trace["missing"])
    unobserved = sorted(
        missing | {n for n in expected_spans if n not in by_name}
    )
    for metric, _, _, sources in PER_LAYER:
        if metric in values and (
            values[metric] is None or any(s in unobserved for s in sources)
        ):
            values[metric] = UNOBSERVED

    root = total(ROOT_SPAN)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        layer_self[span[0].split(".")[0]] += selfs[i]
    shares = {
        layer: {"self_s": s, "share": s / root if root > 0 else 0.0}
        for layer, s in layer_self.items()
    }
    return values, shares, unobserved, notes
