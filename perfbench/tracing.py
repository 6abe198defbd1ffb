"""In-memory spans around calls into cubeshadows, and the per-layer metrics
computed from them.

Spans are recorded from the benchmark's side of each layer boundary: the
library is not edited. A public function is wrapped at the module
attribute through which its caller looks it up, so a wrapper on
``oracle.sample_sphere`` sees every sample ``agreement_sweep`` draws,
and a wrapper on ``measure.estimate`` sees every dimension
``growth_scan`` summarizes.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


def _n_of(u, *_args, **_kwargs):
    return u.n


def _first(x, *_args, **_kwargs):
    return x


def _estimate_size(n, samples, *_args, **_kwargs):
    return (n, samples)


# (module, attribute the caller looks up, span name, size of the call)
BINDINGS = [
    ("oracle", "enumerate_shadows", "oracle.enumerate_shadows", _n_of),
    ("oracle", "any_vertex_inside", "oracle.any_vertex_inside", _n_of),
    ("oracle", "min_abs_inner_product", "oracle.min_abs_inner_product", _n_of),
    ("oracle", "agreement_sweep", "oracle.agreement_sweep", _first),
    # what agreement_sweep calls per trial
    ("oracle", "sample_sphere", "measure.sample_sphere", _first),
    ("oracle", "criterion", "geometry.criterion", _n_of),
    # what sample_sphere calls to normalize a draw
    ("measure", "UnitVector", "geometry.unitvector", None),
    ("measure", "growth_scan", "measure.growth_scan", None),
    # what growth_scan calls per dimension, and estimate per sample
    ("measure", "estimate", "measure.estimate", _estimate_size),
    ("measure", "criterion_product_raw", "measure.criterion_product_raw", None),
]

ORACLE_VERTEX_SPANS = (
    "oracle.enumerate_shadows",
    "oracle.any_vertex_inside",
    "oracle.min_abs_inner_product",
)


class Tracer:
    """Collects spans ``(name, start, end, parent, op_id, size)`` in memory.

    ``parent`` is the index of the enclosing span, or -1 at the root;
    ``op_id`` is the benchmark operation the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1
        self._saved = []

    def record(self, name, start, end, parent=None, size=None):
        """Append a finished span; returns its index."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.op_id, size))
        return len(self.spans) - 1

    def wrap(self, name, fn, size_fn=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = size_fn(*args, **kwargs) if size_fn else None
                spans[idx] = (name, start, end, parent, self.op_id, size)

        return traced

    def install(self, modules):
        """Wrap every binding in BINDINGS; undo with uninstall()."""
        for mod_name, attr, name, size_fn in BINDINGS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, size_fn))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                name, start, end, parent, op_id, size = s
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "size": size,
                        }
                    )
                    + "\n"
                )


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so their
    durations do not overlap and can be summed.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _us_per_call(durations):
    return 1e6 * sum(durations) / len(durations) if durations else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer numbers of one traced pass that took ``wall_s`` seconds.

    Busy times are inclusive (a call's whole duration as its caller
    sees it); ``oracle.self_frac`` uses self times.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)

    def durs(name, keep=lambda size: True):
        return [s[2] - s[1] for s in by_name[name] if keep(s[5])]

    vertices = sum(1 << s[5] for n in ORACLE_VERTEX_SPANS for s in by_name[n])
    oracle_busy = sum(sum(durs(n)) for n in ORACLE_VERTEX_SPANS)
    selfs = self_times(spans)
    oracle_self = sum(t for s, t in zip(spans, selfs) if s[0].startswith("oracle."))

    est = by_name["measure.estimate"]

    def samples_per_s(n):
        rows = [s for s in est if s[5][0] == n]
        busy = sum(s[2] - s[1] for s in rows)
        return sum(s[5][1] for s in rows) / busy if busy else 0.0

    return {
        "oracle.vertices": (vertices, "count"),
        "oracle.enumerate.busy_s": (sum(durs("oracle.enumerate_shadows")), "s"),
        "oracle.any_vertex_inside.busy_s": (
            sum(durs("oracle.any_vertex_inside")),
            "s",
        ),
        "oracle.min_abs_inner_product.busy_s": (
            sum(durs("oracle.min_abs_inner_product")),
            "s",
        ),
        "oracle.mvert_per_s": (
            vertices / oracle_busy / 1e6 if oracle_busy else 0.0,
            "Mvert/s",
        ),
        "oracle.enumerate.us_per_call_small": (
            _us_per_call(durs("oracle.enumerate_shadows", lambda n: n <= 10)),
            "us",
        ),
        "oracle.self_frac": (oracle_self / wall_s, "frac"),
        "geometry.unitvector.us_per_call": (
            _us_per_call(durs("geometry.unitvector")),
            "us",
        ),
        "geometry.unitvector.calls": (len(by_name["geometry.unitvector"]), "count"),
        "geometry.criterion.us_per_call": (
            _us_per_call(durs("geometry.criterion")),
            "us",
        ),
        "geometry.criterion.calls": (len(by_name["geometry.criterion"]), "count"),
        "measure.sample_sphere.us_per_call": (
            _us_per_call(durs("measure.sample_sphere")),
            "us",
        ),
        "measure.sample_sphere.calls": (len(by_name["measure.sample_sphere"]), "count"),
        "measure.estimate.busy_s": (sum(s[2] - s[1] for s in est), "s"),
        "measure.samples": (sum(s[5][1] for s in est), "count"),
        "measure.samples_per_s.n10": (samples_per_s(10), "1/s"),
        "measure.samples_per_s.n10000": (samples_per_s(10000), "1/s"),
        "measure.criterion_product_raw.us_per_call": (
            _us_per_call(durs("measure.criterion_product_raw")),
            "us",
        ),
    }


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def cli_metrics(spans, labels):
    """Per CLI invocation: the record's own handler time, and start-up as
    the rest of the run (the self time of the benchmark's span)."""
    selfs = self_times(spans)
    handler = defaultdict(list)
    startup = defaultdict(list)
    for s, own in zip(spans, selfs):
        if s[0] == "cli.handler":
            handler[s[5]].append(s[2] - s[1])
        elif s[0] == "bench.op" and s[5] is not None:
            startup[s[5]].append(own)
    out = {}
    for label in labels:
        out[f"cli.handler_ms.{label}"] = (1e3 * median_or_zero(handler[label]), "ms")
        out[f"cli.startup_s.{label}"] = (median_or_zero(startup[label]), "s")
    out["extremal.numerical_max.busy_s"] = (
        median_or_zero(handler["extremal_verify"]),
        "s",
    )
    return out
