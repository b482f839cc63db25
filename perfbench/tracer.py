"""Span tracer for the Monte Carlo drivers, installed from outside the package.

The drivers look up their layer entry points at call time: module-level
names in ``mmdg.driver`` and ``mmdg.linalg``, and the methods of
``GaussianSampler``.  ``Tracer.run`` replaces each of them with a timing
wrapper for the length of one driver call and puts the originals back on
exit, so no wrapper outlives the traced call.  Nothing under ``src/`` is
edited.  The ``mmdg.kernels`` hot loops get no spans of their own; they
are reached only through ``assembly.load`` and ``assembly.mode_source``.

Spans stay in memory.  Each records its name, start, end, parent (index
into ``Tracer.spans``, -1 for the root) and run id.  A span's self time is
its duration minus that of its children.  The tracer assumes one thread
(``RunConfig.workers == 1``): it keeps a single stack of open spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (owner, attribute, span name).  An owner "module:Class" names a class
# whose method is wrapped.
TARGETS = (
    ("mmdg.driver", "build_uniform_mesh", "mesh.build"),
    ("mmdg.random_field:GaussianSampler", "__init__", "random_field.cov_factor"),
    ("mmdg.random_field:GaussianSampler", "sample", "random_field.draw"),
    ("mmdg.driver", "sample_uniform", "random_field.draw"),
    ("mmdg.driver", "assemble_a_h", "assembly.a_h"),
    ("mmdg.driver", "assemble_standard", "assembly.standard"),
    ("mmdg.driver", "assemble_oscillatory_load", "assembly.load"),
    ("mmdg.driver", "assemble_mode_source", "assembly.mode_source"),
    ("mmdg.linalg", "factorize", "linalg.factorize"),
    ("mmdg.linalg", "solve", "linalg.solve"),
)

# Bytes moved per stored factor entry by one triangular solve: a complex128
# value and an int32 row index.  Cache reuse is ignored, hence "computed".
BYTES_PER_LU_ENTRY = 20


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    rhs: int = 0            # columns solved, linalg.solve spans only

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans of traced driver calls; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.first_factor: dict[int, object] = {}   # run id -> Factorization
        self._bounds: list[tuple[int, int]] = []     # run id -> span slice
        self._stack: list[int] = []
        self._run = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "linalg.solve":
                b = args[1]
                tracer.spans[idx].rhs = b.shape[1] if b.ndim == 2 else 1
            elif name == "linalg.factorize":
                tracer.first_factor.setdefault(tracer._run, result)
            return result

        return wrapper

    @contextmanager
    def run(self, name: str):
        """Trace one driver call: install the wrappers, open the root span
        and yield the run id; restore every original on exit."""
        saved = []
        try:
            for owner, attr, span_name in TARGETS:
                obj = _resolve(owner)
                original = obj.__dict__[attr]
                saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(original, span_name))
            self._run = len(self._bounds)
            root = self._open(name)
            try:
                yield self._run
            finally:
                self._close(root)
                self._bounds.append((root, len(self.spans)))
                self._run = -1
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def run_spans(self, run: int) -> tuple[int, list[Span]]:
        """Index of the run's root span, and the run's spans, root first."""
        start, stop = self._bounds[run]
        return start, self.spans[start:stop]


def layer_metrics(tracer: Tracer, run: int, M: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, whose sample count is ``M``,
    and each span name's share of the run's wall time.

    ``*_s`` metrics are totals over the run, ``*_ms`` metrics are mean
    milliseconds per call (0 when the layer is not called).  Times are self
    times.
    """
    offset, spans = tracer.run_spans(run)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent - offset] += s.duration
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, child in zip(spans, child_time):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration - child
        calls[s.name] = calls.get(s.name, 0) + 1
    root = spans[0]
    root_self = busy[root.name]

    def per_call_ms(name):
        return 1e3 * busy[name] / calls[name] if calls.get(name) else 0.0

    fact = tracer.first_factor.pop(run)
    nnz_A = fact.nnz
    nnz_LU = fact.lu.L.nnz + fact.lu.U.nnz
    solves = [s for s in spans if s.name == "linalg.solve"]
    rhs = sum(s.rhs for s in solves)
    solve_busy = busy.get("linalg.solve", 0.0)

    # A sample runs from its first field draw (two draws per sample: eta,
    # xi) to the next sample's; the last one ends with the last solve.
    draws = [s for s in spans if s.name == "random_field.draw"]
    edges = [s.start for s in draws[::2]] + [solves[-1].end]
    sample_ms = 1e3 * np.diff(edges)
    p50, p90 = np.percentile(sample_ms, [50, 90])

    shares = {name: t / root.duration for name, t in busy.items()}
    metrics = {
        "mesh.build_s": busy.get("mesh.build", 0.0),
        "random_field.cov_factor_s": busy.get("random_field.cov_factor", 0.0),
        "random_field.draw_ms": per_call_ms("random_field.draw"),
        "random_field.draws": calls.get("random_field.draw", 0),
        "assembly.a_h_s": busy.get("assembly.a_h", 0.0),
        "assembly.nnz_A": nnz_A,
        "assembly.standard_ms": per_call_ms("assembly.standard"),
        "assembly.standard_calls": calls.get("assembly.standard", 0),
        "assembly.load_ms": per_call_ms("assembly.load"),
        "assembly.load_calls": calls.get("assembly.load", 0),
        "assembly.mode_source_ms": per_call_ms("assembly.mode_source"),
        "assembly.mode_source_calls": calls.get("assembly.mode_source", 0),
        "linalg.factor_s": busy.get("linalg.factorize", 0.0),
        "linalg.factorizations": calls.get("linalg.factorize", 0),
        "linalg.nnz_LU": nnz_LU,
        "linalg.fill_ratio": nnz_LU / nnz_A,
        "linalg.solve_calls": len(solves),
        "linalg.rhs_solved": rhs,
        "linalg.solve_ms_per_rhs": 1e3 * solve_busy / rhs,
        "linalg.solve_gbps_computed":
            rhs * nnz_LU * BYTES_PER_LU_ENTRY / solve_busy / 1e9,
        "driver.self_s": root_self,
        "driver.sample_ms_p50": float(p50),
        "driver.sample_ms_p90": float(p90),
        "driver.samples": len(sample_ms),
        "driver.solves_per_sample": rhs / M,
        "trace_coverage_frac": 1.0 - root_self / root.duration,
    }
    return metrics, shares
