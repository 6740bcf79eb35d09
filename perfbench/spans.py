"""Timing wrappers around the calls each moemerge module makes into the next.

``install`` replaces module attributes with wrappers that record one span
per call: (id, parent id, name, thread, start, end, amount). A span's
parent is the innermost span open on the same thread. Spans stay in
memory; the caller writes them out at the end. Nothing under ``src/`` is
changed: the wrappers live here and are installed only in traced runs.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time


def _result_bytes(args, result):
    return len(result)


def _result_elems(args, result):
    return int(result.size)


def _arg0_elems(args, result):
    return int(args[0].size)


# (module, attribute, span name, amount). The module is the caller whose
# namespace binds the attribute, so each boundary is wrapped where it is
# crossed. Span names are "<layer>.<what>".
PATCHES = [
    ("moemerge.cli", "open_checkpoint", "safetensors_io.open", None),
    ("moemerge.merge_core", "open_checkpoint", "safetensors_io.open", None),
    # write_checkpoint re-opens its output through this module global.
    ("moemerge.safetensors_io", "open_checkpoint", "safetensors_io.open", None),
    ("moemerge.merge_core", "read_tensor_raw", "safetensors_io.read", _result_bytes),
    ("moemerge.merge_core", "decode", "tensor_math.decode", _result_elems),
    ("moemerge.merge_core", "encode", "tensor_math.encode", _arg0_elems),
    ("moemerge.merge_core", "linear_combination", "tensor_math.combine", _result_elems),
    ("moemerge.merge_core", "normalized_frobenius_diff", "tensor_math.diff", _arg0_elems),
    ("moemerge.merge_core", "classify", "taxonomy.classify", None),
    ("moemerge.merge_core", "in_subset", "taxonomy.in_subset", None),
    # The CLI calls these through the module object, so patching the module
    # attribute reaches its calls.
    ("moemerge.merge_core", "validate_compatibility", "merge_core.compat", None),
    ("moemerge.merge_core", "compute_diffs", "merge_core.diff", None),
    ("moemerge.merge_core", "plan_merge", "merge_core.plan", None),
    ("moemerge.merge_core", "execute_merge", "merge_core.execute", None),
    ("moemerge.merge_core", "threshold_sweep", "merge_core.sweep", None),
    ("moemerge.merge_core", "save_diff_cache", "merge_core.cache_save", None),
    ("moemerge.merge_core", "load_diff_cache", "merge_core.cache_load", None),
    ("moemerge.analysis", "emit_heatmap", "analysis.heatmap", None),
    ("moemerge.analysis", "emit_histogram", "analysis.histogram", None),
]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name, fn, args, kwargs=None, amount=None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            amt = amount(args, result) if amount is not None and result is not None else 0
            self.spans.append((sid, parent, name, threading.get_ident(), start, end, amt))

    def wrap(self, name, fn, amount=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, amount)

        return wrapper

    def wrap_writer(self, fn):
        """write_checkpoint, with each wait for its next input tensor as a child span."""

        def wrapper(stream, *args, **kwargs):
            def waited():
                it = iter(stream)
                while True:
                    try:
                        item = self.call("safetensors_io.write_wait", next, (it,))
                    except StopIteration:
                        return
                    yield item

            return self.call("safetensors_io.write", fn, (waited(), *args), kwargs)

        return wrapper


def install(tracer: Tracer):
    """Install the wrappers; returns a function that restores the originals."""
    saved = []
    for module_name, attr, name, amount in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, amount))
    merge_core = importlib.import_module("moemerge.merge_core")
    saved.append((merge_core, "write_checkpoint", merge_core.write_checkpoint))
    merge_core.write_checkpoint = tracer.wrap_writer(merge_core.write_checkpoint)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
