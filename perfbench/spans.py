"""Spans for the traced run, recorded by the benchmark around calls into
mdslift's public functions. Nothing in mdslift itself is changed: each
traced function is rebound, in every mdslift namespace that holds it,
to a wrapper that appends (name, start_ns, end_ns, parent, op) to an
in-memory list. The list is written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, function, span name, unit of the span's per-call metrics).
# Several functions may share one span name; field construction does.
TRACED = [
    ("field", "make_prime_field", "field.build", "s"),
    ("field", "make_extension_field", "field.build", "s"),
    ("field", "field_from_modulus", "field.build", "s"),
    ("lifting", "sample_dh", "lifting.sample_dh", "us"),
    ("lifting", "lift", "lifting.lift", "us"),
    ("matrix", "rank", "matrix.rank", "us"),
    ("matrix", "embed_matrix", "matrix.embed_matrix", "us"),
    ("matrix", "to_systematic", "matrix.to_systematic", "us"),
    ("matrix", "solve", "matrix.solve", "us"),
    ("matrix", "vec_mat_mul", "matrix.vec_mat_mul", "us"),
    ("matrix", "submatrix", "matrix.submatrix", "us"),
    ("codes", "is_mds", "codes.is_mds", "ms"),
    ("codes", "min_distance", "codes.min_distance", "s"),
    ("erasure", "erasure_encode", "erasure.encode", "us"),
    ("erasure", "erasure_decode", "erasure.decode", "us"),
    ("formats", "format_erasure", "formats.format_erasure", "us"),
    ("formats", "parse_erasure", "formats.parse_erasure", "us"),
    ("formats", "parse_code", "formats.parse_code", "ms"),
    ("formats", "format_code", "formats.format_code", "ms"),
    ("formats", "parse_dh", "formats.parse_dh", "ms"),
    ("formats", "format_dh", "formats.format_dh", "ms"),
    ("cli", "main", "cli.main", "ms"),
]

# Work units, computed from the call's arguments before it runs:
# C(n, k) minors per minor check, q^k - 1 codewords per enumeration
# (none when the distance is already cached), n tokens per word.
WORK = {
    "is_mds": lambda code, *a, **k: ("codes.minors", math.comb(code.n, code.k)),
    "min_distance": lambda code, *a, **k: (
        "codes.codewords", code.spec.order ** code.k - 1 if code.d is None else 0),
    "format_erasure": lambda word, *a, **k: ("formats.tokens", word.code.n),
    "parse_erasure": lambda code, *a, **k: ("formats.tokens", code.n),
}

# Printed beside a metric: each work count derived from the inputs is
# labelled "computed", and each ratio or rate names its base.
NOTES = {
    "field.builds": "computed: distinct fields returned",
    "field.max_order": "computed: largest order among them",
    "codes.minors": "computed: C(n,k) per is_mds call",
    "codes.minors_per_s": "codes.minors over codes.is_mds busy time",
    "codes.codewords": "computed: q^k-1 per min_distance call",
    "codes.codewords_per_s": "codes.codewords over codes.min_distance busy time",
    "formats.tokens": "computed: n per erasure word formatted or parsed",
    "formats.tokens_per_s": "formats.tokens over format_erasure + parse_erasure busy time",
    "erasure.detected_ratio": "Inconsistent verdicts over erasure.corrupted",
    "trace.overhead": "traced ops_per_s over untraced ops_per_s",
}

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


class Tracer:
    """Span recorder. ``op`` is the id of the op in progress (-1 during
    set-up); while ``on`` is false the wrappers call straight through."""

    def __init__(self) -> None:
        self.spans: list = []
        self.work: dict[str, int] = defaultdict(int)
        self.fields: dict[int, int] = {}  # id of each FieldSpec returned -> order
        self.op = -1
        self.on = True
        self._stack: list[int] = []

    def _wrap(self, name, fn, work=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if work is not None:
                key, units = work(*args, **kwargs)
                self.work[key] += units
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return traced

    def _note_field(self, spec) -> None:
        self.fields.setdefault(id(spec), spec.order)

    def install(self) -> None:
        """Rebind every traced function in each loaded mdslift module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "mdslift" or name.startswith("mdslift.")]
        for mod, fn_name, span, _unit in TRACED:
            fn = getattr(sys.modules[f"mdslift.{mod}"], fn_name)
            after = self._note_field if mod == "field" else None
            wrapped = self._wrap(span, fn, WORK.get(fn_name), after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)

    def layer_metrics(self, op_intervals: list[tuple[int, int, int]]) -> dict[str, tuple]:
        """(value, unit) of busy time, self time and calls per span name,
        of work counts and rates, and of ``other``: op time outside any
        top-level span."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, self_ns, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        covered = defaultdict(int)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            busy[name] += end - start
            self_ns[name] += end - start - child[idx]
            calls[name] += 1
            if parent < 0 and op >= 0:
                covered[op] += end - start

        out: dict[str, tuple] = {}
        for span, unit in dict((s, u) for _m, _f, s, u in TRACED).items():
            n = calls[span]
            # field.build is a total: most field construction calls are cache hits
            per = 1 if span == "field.build" else max(n, 1)
            out[f"{span}_{unit}"] = (busy[span] * _SCALE[unit] / per, unit)
            out[f"{span}.self_{unit}"] = (self_ns[span] * _SCALE[unit] / per, unit)
            out[f"{span}.calls"] = (n, "count")
        out["field.builds"] = (len(self.fields), "count")
        out["field.max_order"] = (max(self.fields.values(), default=0), "count")

        def work(key, *spans):
            # the count, and its rate over the busy time of the spans that did it
            secs = sum(busy[s] for s in spans) * 1e-9
            n = self.work[key]
            out[key] = (n, "count")
            out[f"{key}_per_s"] = (n / secs if secs else 0.0, "1/s")

        work("codes.minors", "codes.is_mds")
        work("codes.codewords", "codes.min_distance")
        work("formats.tokens", "formats.format_erasure", "formats.parse_erasure")

        op_total = sum(end - start for _i, start, end in op_intervals)
        uncovered = op_total - sum(covered[i] for i, _s, _e in op_intervals)
        out["other"] = (uncovered * 1e-6 / max(len(op_intervals), 1), "ms")
        out["trace.ops"] = (len(op_intervals), "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
