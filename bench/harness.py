"""Request accounting and span tracing for the benchmark.

A ``Recorder`` times every request of a pass (tracing on or off) and turns any
exception or failed check inside a request into a counted failure.  When
tracing is on, it keeps one span per request and, through ``instrument``, one
span per call of a public module-level function of the package, so spans nest
the way the calls do and each layer's self time is its own.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """A request's output did not meet its correctness check."""


def require(condition, message: str) -> None:
    """Fail the current request unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    pass_index: int
    request: str       # id shared by every span of one request
    kind: str          # the request's kind and size,
    n: int | None      # which key the per-call summary
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RequestRecord:
    kind: str
    n: int | None
    traced: bool
    seconds: float
    ok: bool
    error: str | None = None


@dataclass
class Recorder:
    run_id: str
    tracing: bool = False
    pass_index: int = 0
    spans: list[Span] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)
    counts: dict[tuple[int, str], float] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _request_seq: int = 0

    @contextlib.contextmanager
    def request(self, kind: str, n: int | None = None):
        """Time one request; an exception or failed check marks it failed and the
        pass goes on with the next request."""
        self._request_seq += 1
        request_id = f"{self.run_id}/p{self.pass_index}/r{self._request_seq}"
        span = self._open(f"bench.{kind}", request_id, kind, n) if self.tracing else None
        start = time.perf_counter()
        error = None
        try:
            yield
        except Exception as exc:  # the run must continue after any failure
            error = f"{kind} n={n}: {type(exc).__name__}: {exc}"
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            print(f"FAILED {error}", file=sys.stderr)
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                self._close(span)
            self.requests.append(RequestRecord(kind, n, self.tracing, seconds, error is None, error))

    @contextlib.contextmanager
    def instrument(self, modules, count):
        """While open, every public module-level function defined in one of
        ``modules`` runs inside a span named ``<module>.<function>``.  The
        functions are replaced in every module's namespace, so calls between
        the modules are traced too.  ``count(rec, name, fn, args, kwargs,
        result)`` is called after each traced call."""
        package = {m.__name__ for m in modules}
        patched = []
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not fn.__name__.startswith("_")
                        and fn.__module__ in package):
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    patched.append((module, attr, fn))
                    setattr(module, attr, self._traced(name, fn, count))
        try:
            yield
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def _traced(self, name, fn, count):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            outer = self._stack[-1]  # the request, or the call, this one serves
            span = self._open(name, outer.request, outer.kind, outer.n)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            count(self, name, fn, args, kwargs, result)
            return result
        return call

    def _open(self, name, request_id, kind, n) -> Span:
        span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                    name, self.pass_index, request_id, kind, n, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float, combine=lambda old, new: old + new) -> None:
        """Add to a per-pass counter (``combine`` merges it with the pass's earlier value)."""
        slot = (self.pass_index, name)
        self.counts[slot] = combine(self.counts[slot], value) if slot in self.counts else value

    # ---- summaries -------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failures(self) -> list[str]:
        return [r.error for r in self.requests if not r.ok]

    def request_seconds(self, kind: str, n: int | None) -> list[float]:
        """Durations of the successful untraced requests of one kind and size
        (all of them when none succeeded, so a metric always has a sample)."""
        records = [r for r in self.requests if r.kind == kind and r.n == n and not r.traced]
        good = [r.seconds for r in records if r.ok]
        return good or [r.seconds for r in records]

    def self_seconds_by_layer(self, pass_index: int) -> dict[str, float]:
        """Per-layer self time of one traced pass: span durations minus the part
        covered by their child spans."""
        spans = [s for s in self.spans if s.pass_index == pass_index]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: dict[str, float] = {}
        for s in spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
        return out

    def span_seconds(self) -> dict[str, list[float]]:
        """Durations of every traced library call, keyed
        ``<module>.<function>_s@<request kind>.n<request size>``."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if s.layer != "bench":
                out.setdefault(f"{s.name}_s@{s.kind}.n{s.n}", []).append(s.duration)
        return out

    def pass_counts(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for (_, key), value in sorted(self.counts.items()):
            out.setdefault(key, []).append(value)
        return out


def tail_summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest of the p50/p90/p99/p99.9
    percentiles that has at least ten samples beyond it (None when no
    percentile has that many)."""
    out = {"median": statistics.median(samples), "samples": len(samples), "tail": None}
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            out["tail"] = {"percentile": pct, "value": cuts[round(pct * 10) - 1]}
            break
    return out
