"""Span recorder for the traced run.

The traced run replaces selected module attributes of ``skece`` with thin
wrappers for its own duration. A wrapper records a span (name, start, end,
parent) when the recorder is active, that is only inside a timed operation;
checks and set-up call the library through the same wrappers unrecorded.
The untraced runs never install the wrappers.

A layer's self time is its span's duration minus the durations of its
direct child spans. Children nest strictly inside their parent because one
thread makes every call.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

# (module, function) pairs whose self time and call count the traced run reports
LAYERS = [
    ("channel", "simulate"),
    ("channel", "save_trace"),
    ("channel", "load_trace"),
    ("quantizer", "quantize_stream"),
    ("quantizer", "merge_kept"),
    ("quantizer", "extract_bits"),
    ("validation", "make_tag"),
    ("validation", "validate"),
    ("recombine", "edit_distances_to_reference"),
    ("recombine", "allocate"),
    ("recombine", "plan"),
    ("recombine", "recombine"),
    ("cascade", "cascade_reconcile"),
    ("protocol", "run_key_agreement"),
    ("protocol", "reconcile_bit_streams"),
    ("experiments", "extract_party_streams"),
    ("experiments", "key_material"),
    ("analysis", "nist_frequency"),
    ("analysis", "nist_longest_run"),
    ("analysis", "nist_fft"),
    ("analysis", "nist_approx_entropy"),
]

LAYER_NAMES = [f"{mod}.{fn}" for mod, fn in LAYERS]


class SpanRecorder:
    """Spans of the current operation, folded into per-layer totals on close."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.attributed_ns = 0
        self._tag_sources: dict[int, tuple] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def start_op(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._tag_sources.clear()
        self.active = True

    def end_op(self) -> None:
        """Fold this operation's spans into the per-layer totals."""
        self.active = False
        for name, own in self_times(self.spans):
            self.self_ns[name] += own
            self.calls[name] += 1
            self.attributed_ns += own
        self._tag_sources.clear()

    # count hooks, called by the wrappers after the wrapped call returns

    def after(self, name: str, args, kwargs, result) -> None:
        if name == "validation.make_tag":
            bits = args[0].bits if hasattr(args[0], "bits") else np.asarray(args[0])
            self._tag_sources[id(result)] = (result, bits.copy())
        elif name == "validation.validate":
            source = self._tag_sources.get(id(args[0]))
            local = args[1].bits if hasattr(args[1], "bits") else np.asarray(args[1])
            if result and source is not None and not np.array_equal(source[1], local):
                self.counts["validation.false_accepts"] += 1
        elif name == "quantizer.extract_bits":
            self.counts["quantizer.kept_bits"] += len(result)
            self.counts["quantizer.probes"] += np.asarray(args[0]).size
        elif name == "channel.save_trace":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts["channel.trace_bytes"] += os.path.getsize(path)


def self_times(spans):
    """(name, self time) per span: its duration minus its direct children's."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [
        (name, end - start - child_ns[k]) for k, (name, start, end, _) in enumerate(spans)
    ]


def _wrap(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        recorder.after(name, args, kwargs, result)
        return result

    return traced


class Patched:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.saved: list[tuple] = []

    def __enter__(self):
        for mod, fn in LAYERS:
            module = importlib.import_module(f"skece.{mod}")
            original = getattr(module, fn)
            self.saved.append((module, fn, original))
            setattr(module, fn, _wrap(self.recorder, f"{mod}.{fn}", original))
        return self.recorder

    def __exit__(self, *exc):
        for module, fn, original in reversed(self.saved):
            setattr(module, fn, original)
        self.saved.clear()
        return False
