"""In-memory span recorder and call counters for the traced benchmark run.

A span is (name, start, end, parent, op id); spans of one operation share
the op id.  Spans are recorded around calls the benchmark makes into the
library, never inside it.  A span marked ``replay`` times a component call
that the benchmark repeats after the real operation, so that a layer the
operation reaches only indirectly gets a time of its own; replayed work is
excluded from the operation's time and from its counts.

Counts come from wrappers this file installs on the numpy and scipy entry
points the library reaches.  They are installed in the traced run only and
attribute each call to the innermost open span.  Only the stdlib is
imported at module level, so a fresh process can time its own imports.
"""

from __future__ import annotations

import sys
import time

#: Counters the wrappers maintain, in report order.
COUNTERS = (
    "linalg.eigh_calls",
    "linalg.eigvalsh_calls",
    "linalg.norm2_calls",
    "optimize.minimize_calls",
    "optimize.nfev",
)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.tracer._stack.append(self.rec)
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op_id = None

    def span(self, name: str, replay: bool = False, **attrs) -> _Span:
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": None,
            "end": None,
            "parent": None if parent is None else parent["id"],
            "op": self.op_id,
            "replay": replay or (parent is not None and parent["replay"]),
            "counts": {},
        }
        rec.update(attrs)
        self.spans.append(rec)
        return _Span(self, rec)

    def op(self, op_id: int, **attrs) -> _Span:
        """Root span of one operation; later spans carry its id."""
        self.op_id = op_id
        return self.span("op", **attrs)

    def count(self, key: str, n: int = 1) -> None:
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + n

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by a child process under the innermost
        open span."""
        parent = self._stack[-1]
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec)
            rec["id"] += base
            rec["parent"] = parent["id"] if rec["parent"] is None else rec["parent"] + base
            rec["op"] = parent["op"]
            self.spans.append(rec)


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name, replay=False, **attrs):
        return self._span

    def op(self, op_id, **attrs):
        return self._span


def install_counters(tracer: Tracer) -> list[str]:
    """Wrap numpy.linalg.eigh, eigvalsh and norm (counting ``ord=2`` only)
    and scipy.optimize.minimize, counting its calls and the calls of the
    objective ``fun`` it is given.  ``ncprob.eur.minimize`` is rebound too
    while the library binds that name at import.

    Returns the counters whose entry point could not be wrapped; they must
    be reported as missing.
    """
    import numpy.linalg as la
    import scipy.optimize as so

    missing = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    for attr, name in (("eigh", "linalg.eigh_calls"), ("eigvalsh", "linalg.eigvalsh_calls")):
        if hasattr(la, attr):
            setattr(la, attr, counting(name, getattr(la, attr)))
        else:
            missing.append(name)

    norm = la.norm

    def norm2(x, ord=None, *args, **kwargs):
        if ord == 2:
            tracer.count("linalg.norm2_calls")
        return norm(x, ord, *args, **kwargs)

    la.norm = norm2

    minimize = so.minimize

    def counted_minimize(fun, x0, *args, **kwargs):
        tracer.count("optimize.minimize_calls")

        def counted_fun(*a, **k):
            tracer.count("optimize.nfev")
            return fun(*a, **k)

        return minimize(counted_fun, x0, *args, **kwargs)

    so.minimize = counted_minimize
    eur = sys.modules.get("ncprob.eur")
    if eur is not None and getattr(eur, "minimize", None) is minimize:
        eur.minimize = counted_minimize
    return missing


def is_missing(name: str, missing) -> bool:
    """Whether metric ``name`` is a missing counter or one of its
    ``.d<N>`` variants."""
    return any(name == m or name.startswith(m + ".") for m in missing)


def self_time(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.  Spans of
    one thread nest, so the children's durations simply add up."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
