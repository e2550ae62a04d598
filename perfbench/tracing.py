"""Spans around the calls into each gausdet layer, recorded from outside.

``install`` replaces the public entry points of the program's modules with
thin wrappers for the duration of a traced round and ``uninstall`` puts the
originals back; the program itself is never edited.  Internal calls go
through module globals (``np_test_exact_probs`` calls ``weighted_chi2_cdf``,
``beta_lower_bound`` calls ``solve_u0``), so they are seen too.  Drawing is
timed by wrapping ``shard_stream`` so that the generator it returns times
each ``standard_normal`` call.

Spans are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path
from typing import Callable, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id_, name, parent, attrs):
        self.id = id_
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(next(self._ids), name, parent, attrs)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "attrs": s.attrs,
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> Span:
        self.span = self.tracer._open(self.name, self.attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.span)


class _TimedGenerator:
    """Delegates to a numpy Generator, timing and counting normal draws."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("simulate.draw") as span:
            out = self._gen.standard_normal(*args, **kwargs)
            span.attrs["draws"] = int(getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _candidates(test) -> int:
    if hasattr(test, "prior"):
        return len(test.prior.points)
    if hasattr(test, "candidates"):
        return len(test.candidates)
    return 1


def _solution(out):
    """The ExponentSolution inside an exponents function's return value."""
    if isinstance(out, tuple):
        return out[0]
    return getattr(out, "u0", out)


# (module, attribute or Class.method, span name, attrs of the call,
#  attrs of the result).  Every row is a public entry point of its module.
WRAPPED = [
    ("simulate", "shard_stream", "simulate.shard_stream", None, None),
    ("simulate", "estimate_error_probs", "simulate.estimate_error_probs", None, None),
    ("simulate", "example3_experiment", "simulate.example3_experiment", None, None),
    ("simulate", "lemma1_check", "simulate.lemma1_check", None, None),
    ("simulate", "weighted_chi2_cdf", "simulate.weighted_chi2_cdf", None, None),
    ("simulate", "np_test_exact_probs", "simulate.np_test_exact_probs", None, None),
    *[("model", f"{cls}.accepts", f"model.accepts.{kind}",
       lambda self, Y, *a, **k: {"rows": int(len(Y)), "cands": _candidates(self)},
       None)
      for cls, kind in (("NpTest", "np"), ("BayesTest", "bayes"), ("GlrtTest", "glrt"))],
    *[("exponents", fn, f"exponents.{fn}",
       lambda sigma, *a, **k: {"n": int(sigma.n)},
       lambda out: {"iterations": int(_solution(out).iterations)})
      for fn in ("solve_u0", "alpha_upper_bound", "beta_mismatch_upper",
                 "beta_lower_bound")],
    *[("tails", fn, "tails.call", None, None)
      for fn in ("standard_normal_upper_tail", "normal_tail_bounds",
                 "chi2_lower_tail_sandwich", "chi2_upper_tail_sandwich",
                 "berry_esseen_alpha", "prop4_threshold")],
    ("reduction", "reduce_to_minimal", "reduction.reduce_to_minimal",
     lambda cands, *a, **k: {"m": len(cands)}, None),
]


def install(tracer: Tracer, modules: dict) -> tuple[Callable[[], None], set]:
    """Wrap every entry point in WRAPPED; returns (uninstall, missing names).

    An entry point that no longer exists is reported as missing, and the
    metrics drawn from it are left out rather than read as zero.
    """
    restore = []
    missing = set()
    for mod_name, attr, span_name, call_attrs, result_attrs in WRAPPED:
        if mod_name not in modules:
            continue  # the workload calls the program in child processes
        owner = modules[mod_name]
        name = attr
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(owner, cls, None)
        orig = getattr(owner, name, None) if owner is not None else None
        if orig is None:
            missing.add(span_name)
            continue
        if attr == "shard_stream":
            wrapper = _wrap_stream(tracer, orig)
        else:
            wrapper = _wrap(tracer, orig, span_name, call_attrs, result_attrs)
        setattr(owner, name, wrapper)
        restore.append((owner, name, orig))

    def uninstall() -> None:
        for owner, name, orig in reversed(restore):
            setattr(owner, name, orig)

    return uninstall, missing


def _wrap(tracer, orig, span_name, call_attrs, result_attrs):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        attrs = call_attrs(*args, **kwargs) if call_attrs else {}
        with tracer.span(span_name, **attrs) as span:
            out = orig(*args, **kwargs)
            if result_attrs:
                span.attrs.update(result_attrs(out))
        return out
    return wrapper


def _wrap_stream(tracer, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span("simulate.shard_stream"):
            gen = orig(*args, **kwargs)
        return _TimedGenerator(gen, tracer)
    return wrapper


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
    return {s.id: max(0.0, s.seconds - covered.get(s.id, 0.0)) for s in spans}


def ancestor_attr(span: Span, by_id: dict, key: str) -> Optional[object]:
    """The nearest value of ``key`` among a span and its ancestors."""
    while span is not None:
        if key in span.attrs:
            return span.attrs[key]
        span = by_id.get(span.parent)
    return None
