"""Spans around spiketrim's public functions, recorded from outside the package.

A Tracer replaces a function at the module attribute where its caller looks it
up (for example `engine.ssa_forward`, which engine imported by name) with a
wrapper that records one span per call: name, key, start, end, the time its
wrapped children took, the parent span, and the request it served. Spans stay
in memory until the run ends. `close()` puts every original function back.
"""
from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter_ns
from typing import Callable, Optional


def _block_label(arg_index: int) -> Callable:
    return lambda args, kwargs: args[arg_index].label


def _strategy(args, kwargs) -> str:
    plan = kwargs.get("reduction", args[2] if len(args) > 2 else None)
    return "none" if plan is None else plan.strategy.kind.replace("_", "-")


# (lookup module, attribute, span name, key function or None). The span name is
# the layer's home module and function; a function looked up in several
# modules records all its calls under one name.
TARGETS = (
    ("engine", "forward_full", "engine.forward_full", _strategy),
    ("head", "forward_full", "engine.forward_full", _strategy),
    ("engine", "patch_embed", "backbone.patch_embed", None),
    ("engine", "ssa_forward", "backbone.ssa_forward", _block_label(1)),
    ("selection", "ssa_forward", "backbone.ssa_forward", _block_label(1)),
    ("neuron", "lif_step", "neuron.lif_step", None),
    ("backbone", "lif_sequence", "neuron.lif_sequence", None),
    ("selection", "lif_sequence", "neuron.lif_sequence", None),
    ("engine", "token_logits", "backbone.token_logits", None),
    ("uncertainty", "token_logits", "backbone.token_logits", None),
    ("engine", "score_tokens", "uncertainty.score_tokens", None),
    ("engine", "build_keep_mask", "selection.build_keep_mask", None),
    ("engine", "pruned_ssa_batched", "selection.pruned_ssa_batched", None),
    ("engine", "build_merge_assignment", "selection.build_merge_assignment", None),
    ("engine", "merged_ssa", "selection.merged_ssa", None),
    ("selection", "apply_merge", "selection.apply_merge", None),
    ("sweep", "prepared_model", "sweep.prepared_model", None),
    ("sweep", "synth_dataset", "data.synth_dataset", None),
    ("sweep", "init_model", "backbone.init_model", None),
    ("sweep", "train_head", "head.train_head", None),
    ("head", "ridge_solve", "head.ridge_solve", None),
    ("sweep", "evaluate_cell", "sweep.evaluate_cell", None),
    ("cli", "emit_svg_lines", "svg.emit_svg_lines", None),
)


class Tracer:
    """Records spans (name, key, start_ns, end_ns, child_ns, parent, request)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request: Optional[int] = None  # set by the caller around each request
        self._stack: list = []  # [span index, ns spent in wrapped children]
        self._patched: list = []
        self._index: Optional[dict] = None

    def install(self, modules: dict) -> None:
        """Wrap every target found in `modules` (short name -> module)."""
        for mod_name, attr, name, key in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: {mod_name}.{attr} not found; {name} not traced",
                      file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, name, key))
            self._patched.append((module, attr, fn))

    def close(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn: Callable, name: str, key: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_key = key(args, kwargs) if key is not None else ""
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, span_key, start, end, frame[1], parent,
                                   self.request)

        return traced

    # --- aggregation -------------------------------------------------------

    def select(self, name: str, key: Optional[str] = None, requests=None) -> list:
        """Spans of one name, optionally of one key and of some requests.
        Call only after the traced run; the index is built once."""
        if self._index is None:
            self._index = {}
            for s in self.spans:
                self._index.setdefault(s[0], []).append(s)
        return [s for s in self._index.get(name, ())
                if (key is None or s[1] == key)
                and (requests is None or s[6] in requests)]

    def median_ms(self, name: str, key: Optional[str] = None, own: bool = False) -> float:
        """Median duration per call in ms; `own` subtracts wrapped children."""
        spans = self.select(name, key)
        if not spans:
            print(f"perfbench: no calls to {name} {key or ''}", file=sys.stderr)
            return 0.0
        return statistics.median(
            (s[3] - s[2] - (s[4] if own else 0)) / 1e6 for s in spans)

    def calls(self, name: str, requests) -> int:
        return len(self.select(name, requests=requests))

    def dump(self) -> list:
        """Spans as JSON-ready dicts, times in ns from the first span."""
        t0 = min((s[2] for s in self.spans), default=0)
        return [{"name": s[0], "key": s[1], "start_ns": s[2] - t0,
                 "end_ns": s[3] - t0, "child_ns": s[4], "parent": s[5],
                 "request": s[6]} for s in self.spans]
