"""Span tracing of the `subwave` layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records one span per call: name, start, end and parent span.
A function is replaced on every loaded module attribute that refers to it,
so `forward_transform` is traced whether it is reached as
`subwave.transform.forward_transform`, through the copy of the name that
`subwave.semilinear` imported, or through the package root.  The `nonlinearity` method of the
solver's backend models is traced as well: on the abelian backend it is the
only boundary around the pointwise nonlinearity.

Per-layer metrics are derived from the spans after the run (`layer_metrics`).
A layer's self time is its span's duration minus the time its child spans
cover.  `src/` is never modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = ("transform", "hermite", "spectral", "propagator",
                  "semilinear", "abelian", "fdoracle")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent, info=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self, name, info=None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name, fn, info_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, info_fn(args, kwargs) if info_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced layers' public functions at every reference."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "subwave"
                                            or n.startswith("subwave."))]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"subwave.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn, _info_fn(fn))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
            if short == "semilinear":
                for cls_name, cls in list(vars(mod).items()):
                    method = vars(cls).get("nonlinearity") if inspect.isclass(cls) else None
                    if inspect.isfunction(method):
                        self._patch(cls, "nonlinearity", self.wrap(
                            f"semilinear.{cls_name}.nonlinearity", method))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def _info_fn(fn):
    """Records `boundary_limit` for functions that take one."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if "boundary_limit" not in sig.parameters:
        return None

    def info(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"boundary_limit": bound.arguments["boundary_limit"]}

    return info


# ---------------------------------------------------------------------------
# analysis

def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def descendants(spans, root: int) -> list[int]:
    """Indices of every span below `root` (spans are stored in call order)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out


def check_nesting(spans, tol: float = 1e-9) -> list[str]:
    """Problems found: a child outside its parent, or siblings overlapping."""
    problems = []
    last_end: dict = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"{s.name}#{i} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start - tol or s.end > p.end + tol:
                problems.append(f"{s.name}#{i} is not inside {p.name}#{s.parent}")
        if s.start < last_end.get(s.parent, float("-inf")) - tol:
            problems.append(f"{s.name}#{i} overlaps its previous sibling")
        last_end[s.parent] = s.end
    return problems


# Each per-layer metric is one group of span names.  A group's count and
# inclusive time take only its outermost spans, so a traced function that
# calls another of its own group is not counted twice.
def _group(*prefixes):
    return lambda name: name.startswith(prefixes)


_GROUPS = {
    "transform.forward": _group("transform.forward"),
    "transform.synth": _group("transform.synthesize"),
    "transform.calibrate": _group("transform.calibrate"),
    "hermite.table": lambda n: n.startswith("hermite.") and "table" in n,
    "semilinear.picard": _group("semilinear.picard_solve"),
    "semilinear.nonlinearity": lambda n: n.startswith("semilinear.") and "nonlinearity" in n,
    "spectral.norm": lambda n: n.startswith("spectral.") and "norm" in n,
    "abelian.norm": lambda n: n.startswith("abelian.") and "norm" in n,
    "abelian.fft": _group("abelian.abelian_forward", "abelian.abelian_inverse"),
    "propagator.evolve": _group("propagator.evolve"),
    "fdoracle.step": _group("fdoracle.step_leapfrog"),
    "fdoracle.laplacian": _group("fdoracle.apply_sublaplacian"),
    "fdoracle.energy": _group("fdoracle.staggered_energy"),
    "fdoracle.compare": _group("fdoracle.compare_with_spectral"),
}


def _outermost(spans, member):
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        m = member(s.name)
        covered = s.parent >= 0 and inside[s.parent]
        inside[i] = m or covered
        if m and not covered:
            out.append(i)
    return out


def group_stats(spans):
    """{group: (outermost calls, their inclusive seconds, self seconds)}."""
    selfs = self_times(spans)
    stats = {}
    for key, member in _GROUPS.items():
        outer = _outermost(spans, member)
        self_s = sum(t for s, t in zip(spans, selfs) if member(s.name))
        stats[key] = (len(outer), sum(spans[i].duration for i in outer), self_s)
    return stats


def _reindex(spans, indices):
    """Copy of the spans at `indices` with parents renumbered (-1 if outside)."""
    pos = {old: new for new, old in enumerate(indices)}
    out = []
    for old in indices:
        s = spans[old]
        c = Span(s.name, s.start, pos.get(s.parent, -1), s.info)
        c.end = s.end
        out.append(c)
    return out


def layer_metrics(spans, iterations: int) -> dict:
    """The benchmark's per-layer metrics over every span of the run."""
    st = group_stats(spans)
    skipped = sum(1 for s in spans if s.info is not None
                  and s.info.get("boundary_limit", 0) is None)
    return {
        "transform.forward_calls": st["transform.forward"][0],
        "transform.forward_s": st["transform.forward"][1],
        "transform.synth_calls": st["transform.synth"][0],
        "transform.synth_s": st["transform.synth"][1],
        "transform.calibrate_s": st["transform.calibrate"][1],
        "hermite.table_calls": st["hermite.table"][0],
        "semilinear.picard_s": st["semilinear.picard"][1],
        "semilinear.duhamel_self_s": st["semilinear.picard"][2],
        "semilinear.iterations": iterations,
        "semilinear.nonlinearity_calls": st["semilinear.nonlinearity"][0],
        "semilinear.nonlinearity_s": st["semilinear.nonlinearity"][1],
        "semilinear.pointwise_self_s": st["semilinear.nonlinearity"][2],
        "semilinear.boundary_checks_skipped": skipped,
        "spectral.norm_calls": st["spectral.norm"][0],
        "spectral.norm_s": st["spectral.norm"][1],
        "abelian.norm_calls": st["abelian.norm"][0],
        "abelian.norm_s": st["abelian.norm"][1],
        "abelian.fft_calls": st["abelian.fft"][0],
        "abelian.fft_s": st["abelian.fft"][1],
        "propagator.evolve_s": st["propagator.evolve"][1],
        "fdoracle.steps": st["fdoracle.step"][0],
        "fdoracle.laplacian_calls": st["fdoracle.laplacian"][0],
        "fdoracle.step_s": st["fdoracle.step"][1],
        "fdoracle.energy_s": st["fdoracle.energy"][1],
        "fdoracle.compare_s": st["fdoracle.compare"][1],
    }


def phase_report(spans, phase: str) -> dict:
    """Coverage facts for the root span named `phase`.

    Returns its duration, the sum of self times of it and everything below
    it (equal to the duration when the spans partition it), the self time
    by layer, and the outermost call counts of each metric group.
    """
    roots = [i for i, s in enumerate(spans) if s.name == phase and s.parent == -1]
    if len(roots) != 1:
        raise ValueError(f"expected one root span {phase!r}, found {len(roots)}")
    root = roots[0]
    idx = [root] + descendants(spans, root)
    sub = _reindex(spans, idx)
    selfs = self_times(sub)
    by_layer: dict = {}
    for s, t in zip(sub, selfs):
        layer = s.name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    st = group_stats(sub)
    return {
        "duration_s": sub[0].duration,
        "self_sum_s": sum(selfs),
        "self_by_layer_s": by_layer,
        "self_by_span_s": _sum_by_name(sub, selfs),
        "calls": {k: v[0] for k, v in st.items()},
        "nesting_problems": check_nesting(sub),
    }


def _sum_by_name(spans, selfs):
    out: dict = {}
    for s, t in zip(spans, selfs):
        out[s.name] = out.get(s.name, 0.0) + t
    return out
