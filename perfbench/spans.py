"""Spans recorded from outside the program.

While a ``Tracer`` is active it replaces each traced public function at
every place the package looks it up (the package namespace and the module
globals that import it), so calls made inside the program are seen too.
Each call records a span (id, parent, name, start, end, attributes) in
memory; ``write`` saves them as JSON lines.  Leaving ``active()`` restores
the original functions, so untraced rounds run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "spheretail"
MODULES = ("cli", "report", "sampling", "bounds", "gaussian_chi", "moment_compare")


def _bound_args(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _mc_attrs(fn):
    bind = _bound_args(fn)

    def attrs(args, kwargs):
        a = bind(args, kwargs)
        return {"d": int(a["d"]), "n": len(a["coeffs"]), "samples": int(a["n_samples"])}

    return attrs


def _rademacher_attrs(fn):
    bind = _bound_args(fn)
    return lambda args, kwargs: {"n": len(bind(args, kwargs)["coeffs"])}


#: (home module, function, attribute extractor factory) of every traced call
TRACED = (
    ("cli", "main", None),
    ("report", "run_sweep", None),
    ("report", "records_to_json", None),
    ("sampling", "mc_tail_multi", _mc_attrs),
    ("sampling", "clopper_pearson", None),
    ("sampling", "exact_rademacher_tail", _rademacher_attrs),
    ("sampling", "sample_sum_norms", None),
    ("bounds", "theorem_bound", None),
    ("bounds", "corollary_bound", None),
    ("gaussian_chi", "chi_tail", None),
    ("gaussian_chi", "chi_tail_inverse", None),
    ("gaussian_chi", "chi_tail_log", None),
    ("gaussian_chi", "chi_expectation", None),
    ("moment_compare", "bc_comparison_check", None),
    ("moment_compare", "gaussian_comparison_check", None),
    ("moment_compare", "kwapien_check", None),
    ("moment_compare", "is_bisubharmonic_numeric", None),
    ("moment_compare", "is_class_c", None),
    ("moment_compare", "lemma2_hypothesis_check", None),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.chunks = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, attrs))

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def _count_chunks(self, generator):
        @functools.wraps(generator)
        def counted(stream):
            with self._lock:
                self.chunks += 1
            return generator(stream)

        return counted

    @contextlib.contextmanager
    def active(self):
        """Trace every call in ``TRACED`` while the block runs."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        patches = []
        for home, fname, attrs_factory in TRACED:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{home}"), fname)
            wrapped = self._wrap(fn, f"{home}.{fname}", attrs_factory(fn) if attrs_factory else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        stream_cls = importlib.import_module(f"{PACKAGE}.sampling").RngStream
        generator = stream_cls.generator
        patches.append((stream_cls, "generator", generator))
        stream_cls.generator = self._count_chunks(generator)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "name": s.name,
                         "start": s.start, "end": s.end, **s.attrs}
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            if cur_end is None or c.start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c.start, c.end
            else:
                cur_end = max(cur_end, c.end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out
