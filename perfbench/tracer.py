"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, every public function of the
toeplab modules that ``harness.run`` reaches, the dense ``numpy.linalg`` /
``scipy.linalg`` entry points, and the cell tasks submitted to the harness
thread pool.  Each wrapped call becomes a span ``(layer, name, parent,
start, end)``.  Span stacks are thread-local, so the two worker
threads of a pooled run keep separate parent chains.  Spans stay in memory
and are reduced to per-layer metrics by :func:`layer_metrics` after the run.

Layers are the toeplab module names plus ``linalg``.  A linalg call is
attributed to the innermost enclosing module span; a call with no enclosing
span runs in harness code (the cell closure of ``harness.run``).  A name
that has disappeared from a module is reported as unmeasured, never as an
error, so later refactors can rename things without breaking the tracer.

``calculus`` and ``cli`` are not wrapped: ``harness.run`` calls neither.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

#: toeplab modules on the ``harness.run`` call path, in call-graph order.
LAYERS = ("harness", "geometry", "quantize", "randmat", "spectra", "potential", "grushin")

#: Functions that named per-layer metrics read their spans from.
NAMED_SPANS = [("harness", "run"), ("grushin", "b_diagnostics"), ("geometry", "estimate_kappa"),
               ("geometry", "liouville_quadrature"), ("spectra", "weyl_predict"),
               ("randmat", "sample_ginibre"), ("potential", "limit_potential_many")]


# ---------------------------------------------------------------------------
# flop models for the dense entry points (real flops; complex counts x4)
# ---------------------------------------------------------------------------

def _dims(a):
    a = np.asarray(a)
    if a.ndim < 2:
        return None
    m, n = a.shape[-2], a.shape[-1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return m, n, batch * (4 if np.iscomplexobj(a) else 1)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _svd_values(m, n):
    m, n = max(m, n), min(m, n)
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _svd_full(m, n):
    m, n = max(m, n), min(m, n)
    return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3


def _lu(m, n):
    k = min(m, n)
    return m * n * k - (m + n) * k * k / 2.0 + k**3 / 3.0


def _cost(model, factorization=True):
    """Measure hook from ``model(m, n, args, kwargs)``, real flops or None."""
    def cost(args, kwargs):
        d = _dims(args[0] if args else next(iter(kwargs.values())))
        if d is None:
            return None
        m, n, scale = d
        flops = model(m, n, args, kwargs)
        return None if flops is None else {"flops": scale * flops, "factorization": factorization}
    return cost


def _svd_model(m, n, args, kwargs):
    return _svd_full(m, n) if _arg(args, kwargs, 2, "compute_uv", True) else _svd_values(m, n)


def _solve_model(m, n, args, kwargs):
    b = np.asarray(_arg(args, kwargs, 1, "b"))
    k = b.shape[-1] if b.ndim >= 2 else 1
    return _lu(m, n) + 2.0 * n * n * k


def _norm_model(m, n, args, kwargs):
    return _svd_values(m, n) if _arg(args, kwargs, 1, "ord") in (2, -2, "nuc") else None


def _cond_model(m, n, args, kwargs):
    return _svd_values(m, n) if _arg(args, kwargs, 1, "p") in (None, 2, -2) else 2.0 * n**3


def _lu_solve_cost(args, kwargs):
    lu_and_piv = args[0] if args else kwargs.get("lu_and_piv")
    d = _dims(lu_and_piv[0])
    if d is None:
        return None
    b = np.asarray(_arg(args, kwargs, 1, "b"))
    k = b.shape[-1] if b.ndim >= 2 else 1
    return {"flops": d[2] * 2.0 * d[1] * d[1] * k}


def _ginibre_bytes(args, kwargs):
    dim = int(_arg(args, kwargs, 0, "dim"))
    return {"nbytes": 16 * dim * dim}          # complex128 entries, computed


#: (module, attribute, kind, measure hook).  ``kind`` groups calls for metrics.
LINALG_ENTRY_POINTS = [
    ("numpy.linalg", "eigvals", "eig", _cost(lambda m, n, a, k: 10.0 * n**3)),
    ("numpy.linalg", "eigvalsh", "eig", _cost(lambda m, n, a, k: 4.0 * n**3 / 3.0)),
    ("numpy.linalg", "svd", "svd", _cost(_svd_model)),
    ("numpy.linalg", "slogdet", "lu", _cost(lambda m, n, a, k: _lu(m, n))),
    ("numpy.linalg", "inv", "lu", _cost(lambda m, n, a, k: 2.0 * n**3)),
    ("numpy.linalg", "solve", "lu", _cost(_solve_model)),
    ("numpy.linalg", "cond", "norm", _cost(_cond_model)),
    ("numpy.linalg", "norm", "norm", _cost(_norm_model)),
    ("scipy.linalg", "lu_factor", "lu", _cost(lambda m, n, a, k: _lu(m, n))),
    ("scipy.linalg", "lu", "lu", _cost(lambda m, n, a, k: _lu(m, n))),
    ("scipy.linalg", "lu_solve", "lu_solve", _lu_solve_cost),
    ("scipy.linalg.lapack", "zgetrf", "lu", _cost(lambda m, n, a, k: _lu(m, n))),
    ("scipy.linalg.lapack", "dgetrf", "lu", _cost(lambda m, n, a, k: _lu(m, n))),
    ("scipy.linalg.lapack", "zgecon", "gecon", _cost(lambda m, n, a, k: 10.0 * n * n, False)),
    ("scipy.linalg.lapack", "dgecon", "gecon", _cost(lambda m, n, a, k: 10.0 * n * n, False)),
]


@dataclass
class Span:
    id: int
    layer: str
    name: str
    parent: int | None
    ancestors: tuple          # ((layer, name), ...) outermost first, same thread
    kind: str = ""
    start: float = 0.0
    end: float = 0.0
    flops: float = 0.0
    factorization: bool = False
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn, kind: str = "", measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = {}
            if measure is not None:
                extra = measure(args, kwargs)
                if extra is None:               # e.g. a Frobenius norm: not dense work
                    return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), layer, name, stack[-1].id if stack else None,
                        tuple((s.layer, s.name) for s in stack), kind or name, **extra)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}                                   # id(original) -> (original, wrapper)
        for modname, attr, kind, measure in LINALG_ENTRY_POINTS:
            try:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(f"linalg:{modname}.{attr}")
                continue
            wrapper = self._wrap("linalg", attr, fn, kind, measure)
            wrappers[id(fn)] = (fn, wrapper)
            self._patch(mod, attr, wrapper)

        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"toeplab.{layer}")
            except ImportError:
                self.unmeasured.append(f"layer:{layer}")
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    measure = _ginibre_bytes if attr == "sample_ginibre" else None
                    wrappers[id(fn)] = (fn, self._wrap(layer, attr, fn, measure=measure))

        for layer, attr in NAMED_SPANS:
            if not inspect.isfunction(getattr(sys.modules.get(f"toeplab.{layer}"), attr, None)):
                self.unmeasured.append(f"{layer}:{attr}")

        # ``from .x import f`` copies f into other namespaces: rebind every copy
        toeplab_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "toeplab" or n.startswith("toeplab."))]
        for mod in toeplab_modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

        harness = sys.modules.get("toeplab.harness")
        pool = getattr(harness, "ThreadPoolExecutor", None)
        if pool is None:
            self.unmeasured.append("harness:cell")
        else:
            self._patch(harness, "ThreadPoolExecutor", self._traced_pool(pool))
        return self

    def _traced_pool(self, pool_class):
        tracer = self

        class TracedPool(pool_class):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._wrap("harness", "cell", fn), *args, **kwargs)

        return TracedPool

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _outermost(spans, match):
    """Spans satisfying ``match(layer, name)`` with no matching ancestor."""
    return [s for s in spans if match(s.layer, s.name)
            and not any(match(l, n) for l, n in s.ancestors)]


def _owner(span: Span) -> str:
    """Innermost module layer enclosing a span (harness when none)."""
    return span.ancestors[-1][0] if span.ancestors else "harness"


def linalg_attribution(spans: list) -> dict:
    """Dense calls per owning module layer and entry point."""
    counts: dict = {}
    for s in spans:
        if s.layer == "linalg":
            key = f"{_owner(s)}:{s.name}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced ``harness.run`` call."""
    runs = [s for s in spans if s.layer == "harness" and s.name == "run"]
    if not runs:
        raise ValueError("the traced run recorded no harness.run span")
    run = max(runs, key=lambda s: s.duration)
    run_s = run.duration
    linalg = [s for s in spans if s.layer == "linalg"]
    in_grushin = [s for s in linalg if any(l == "grushin" for l, _ in s.ancestors)]
    logdet = [s for s in linalg if s.name == "slogdet"
              and not any(l == "grushin" for l, _ in s.ancestors)]
    diag = _outermost(spans, lambda l, n: l == "grushin" and n == "b_diagnostics")

    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    cells = [s for s in spans if s.layer == "harness" and s.name == "cell"]
    # while pooled cells run, the thread inside harness.run only waits
    window = [(min(c.start for c in cells), max(c.end for c in cells))] if cells else []
    run_self = run_s - _union_length([(c.start, c.end) for c in children.get(run.id, [])] + window)
    cells_self = sum(c.duration - sum(k.duration for k in children.get(c.id, [])) for c in cells)
    busy_threads = run_s - _union_length(window) + sum(c.duration for c in cells)

    def total(xs):
        return float(sum(s.duration for s in xs))

    def count(xs, kind):
        return sum(1 for s in xs if s.kind == kind)

    quantize = _outermost(spans, lambda l, n: l == "quantize")
    ginibre = [s for s in spans if s.layer == "randmat" and s.name == "sample_ginibre"]
    # leggauss nodes for the sphere quadrature use eigvalsh; those are not spectra
    eig = [s for s in linalg if s.kind == "eig" and _owner(s) != "geometry"]
    busy = total(linalg)
    gflop = sum(s.flops for s in linalg) / 1e9
    return {
        "potential.logdet_s": total(logdet),
        "potential.logdet_calls": len(logdet),
        "potential.limit_s": total(_outermost(
            spans, lambda l, n: l == "potential" and n.startswith("limit_potential"))),
        "grushin.diag_s": total(diag),
        "grushin.probes": len(diag),
        "grushin.factorizations_per_probe":
            sum(1 for s in in_grushin if s.factorization) / len(diag) if diag else 0.0,
        "grushin.svd_calls": count(in_grushin, "svd"),
        "grushin.norm_calls": count(in_grushin, "norm"),
        "grushin.lu_calls": count(in_grushin, "lu"),
        "spectra.eig_s": total(eig),
        "spectra.eig_calls": len(eig),
        "spectra.weyl_predict_s": total(_outermost(
            spans, lambda l, n: l == "spectra" and n == "weyl_predict")),
        "harness.run_s": run_s,
        "harness.self_s": run_self + cells_self,
        "harness.overlap": busy_threads / run_s,
        "geometry.kappa_s": total(_outermost(
            spans, lambda l, n: l == "geometry" and n == "estimate_kappa")),
        "geometry.quadrature_s": total(_outermost(
            spans, lambda l, n: l == "geometry" and n == "liouville_quadrature")),
        "quantize.s": total(quantize),
        "quantize.calls": len(quantize),
        "randmat.ginibre_s": total(ginibre),
        "randmat.ginibre_bytes": sum(s.nbytes for s in ginibre),
        "linalg.factorizations": sum(1 for s in linalg if s.factorization),
        "linalg.busy_s": busy,
        "linalg.share": busy / run_s,
        "linalg.gflop": gflop,
        "linalg.gflops_per_s": gflop / busy if busy else 0.0,
    }
