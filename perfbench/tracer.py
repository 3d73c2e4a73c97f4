"""Per-layer tracing for the campaign benchmark.

The tracer wraps sapprox functions from outside the package: each name is
patched where it is looked up (a ``from x import f`` copies ``f`` into the
importing module, so patching ``x.f`` alone would lose that layer without any
error).  Spans are aggregated in memory per layer name: calls, inclusive
time, and the time covered by directly nested spans, from which self time
follows.  A layer that recurses into itself (``Scaled`` delegating to its
inner function) is accounted once, at its outermost call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    items: int = 0  # layer-specific count: q yielded, nonzero AP counts
    active: int = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class _TimedIter:
    """Times every ``next()`` of a generator as a span of its layer, and
    counts the items it yields."""

    def __init__(self, tracer: "Tracer", stats: LayerStats, it):
        self._tracer = tracer
        self._stats = stats
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._tracer.stack
        stack.append(0.0)
        t0 = _clock()
        try:
            item = next(self._it)
        finally:
            dt = _clock() - t0
            child = stack.pop()
            self._stats.total += dt
            self._stats.child += child
            if stack:
                stack[-1] += dt
        self._stats.items += 1
        return item


class Tracer:
    """Installs timing wrappers on sapprox layer functions; ``with tracer:``
    patches them and restores the originals on exit."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, int] = {}
        self.stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    def stats(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    # -- wrapper construction ------------------------------------------------

    def span(self, name: str, fn, on_result=None, on_error=None):
        """A wrapper timing ``fn`` as layer ``name``."""
        st = self.stats(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if st.active:
                return fn(*args, **kwargs)
            st.active += 1
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = _clock() - t0
                st.active -= 1
                st.calls += 1
                st.total += dt
                st.child += stack.pop()
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        """Register ``owner.attr = wrapper_factory(original)`` for install."""
        self._patches.append((owner, attr, wrapper_factory(getattr(owner, attr))))

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        for owner, attr, wrapper in self._patches:
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        return False


def sapprox_tracer() -> Tracer:
    """A tracer over every layer the campaign benchmark reports."""
    from sapprox import _kernel, approx, cli, counting, volume

    tr = Tracer()

    # sring: the box generator counting imported by name
    box = tr.stats("sring.enumerate_box_raw")

    def box_factory(fn):
        timed = tr.span("sring.enumerate_box_raw", fn)

        def call(*args, **kwargs):
            D, gen = timed(*args, **kwargs)
            return D, _TimedIter(tr, box, gen)

        return call

    tr.patch(counting, "enumerate_box_raw", box_factory)

    # _kernel: every caller goes through the module attribute
    tr.patch(_kernel, "valuation", lambda f: tr.span("_kernel.valuation", f))
    tr.patch(_kernel, "introot", lambda f: tr.span("_kernel.introot", f))
    nonzero = tr.stats("_kernel.count_in_ap_int")

    def ap_result(args, result):
        if result:
            nonzero.items += 1

    tr.patch(
        _kernel,
        "count_in_ap_int",
        lambda f: tr.span("_kernel.count_in_ap_int", f, on_result=ap_result),
    )

    # counting: cli imported count_solutions by name; crt_fold is a method
    for owner in (counting, cli):
        tr.patch(owner, "count_solutions", lambda f: tr.span("counting.count_solutions", f))
    tr.patch(counting._CrtCache, "crt_fold", lambda f: tr.span("counting.crt_fold", f))

    # approx: methods are looked up per class, so patch each class that
    # defines its own
    def undecided(exc):
        if isinstance(exc, approx.UndecidedComparison):
            tr.count("approx.undecided")

    classes = (
        approx.RealApproxFunction,
        approx.ConstantOne,
        approx.PowerLaw,
        approx.LogLaw,
        approx.UserStep,
        approx.Scaled,
    )
    for method in ("value_triple", "max_root_leq", "leq_value", "integral_to"):
        for cls in classes:
            if method in vars(cls):
                tr.patch(
                    cls,
                    method,
                    lambda f, name=f"approx.{method}": tr.span(name, f, on_error=undecided),
                )

    def g_interval_factory(fn):
        def call(self, t, prec):
            if prec > 64:
                tr.count("approx.interval_escalations")
            return fn(self, t, prec)

        return call

    tr.patch(approx.LogLaw, "_g_interval", g_interval_factory)

    # volume: cli imported volume_exact by name; the benchmark itself calls
    # through the volume module
    for owner in (volume, cli):
        tr.patch(owner, "volume_exact", lambda f: tr.span("volume.volume_exact", f))

    def mc_result(args, result):
        tr.count("volume.mc_hits", result.hits)
        tr.count("volume.mc_samples", result.samples)

    tr.patch(
        volume,
        "volume_monte_carlo",
        lambda f: tr.span("volume.volume_monte_carlo", f, on_result=mc_result),
    )

    # sampler: cli imported both by name
    tr.patch(cli, "sample_matrix", lambda f: tr.span("sampler.sample_matrix", f))
    tr.patch(cli, "deepen", lambda f: tr.span("sampler.deepen", f))

    tr.patch(cli, "run", lambda f: tr.span("cli.run", f))
    return tr
