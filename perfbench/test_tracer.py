"""Tests of the benchmark's tracer on a tiny config (L=2, M=3, N=2).

    python3 -m pytest -q perfbench/test_tracer.py
"""

import dataclasses

import numpy as np
import pytest

from run import COMMON, import_mmdg
from tracer import TARGETS, Tracer, _resolve, layer_metrics

import_mmdg()

from mmdg.driver import RunConfig, run_multimodes, run_standard  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

TINY = RunConfig(L=2, M=3, N=2, field="gaussian", seed=5, **COMMON)


def originals():
    return [_resolve(owner).__dict__[attr] for owner, attr, _ in TARGETS]


@pytest.mark.parametrize("fn, factorizations, solves", [
    (run_multimodes, 1, TINY.M * (TINY.N + 1)),
    (run_standard, TINY.M, TINY.M),
])
def test_every_call_is_seen_and_nested(fn, factorizations, solves):
    tracer = Tracer()
    with tracer.run("driver") as run_id:
        fn(TINY)
    m, shares = layer_metrics(tracer, run_id, TINY.M)
    assert m["linalg.factorizations"] == factorizations
    assert m["linalg.solve_calls"] == m["linalg.rhs_solved"] == solves
    assert m["random_field.draws"] == 2 * TINY.M
    assert m["driver.samples"] == TINY.M
    assert 0.0 < m["trace_coverage_frac"] < 1.0
    assert sum(shares.values()) == pytest.approx(1.0)

    root, spans = tracer.run_spans(run_id)
    assert spans[0].parent == -1 and spans[0].name == "driver"
    for i, s in enumerate(spans[1:], start=root + 1):
        assert s.run == run_id
        assert root <= s.parent < i
        parent = tracer.spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end


def test_wrappers_are_removed_after_the_traced_run():
    before = originals()
    tracer = Tracer()
    with tracer.run("driver"):
        traced = run_multimodes(TINY)
    assert originals() == before
    n_spans = len(tracer.spans)
    untraced = run_multimodes(TINY)
    assert len(tracer.spans) == n_spans
    assert np.array_equal(traced.psi.coeffs, untraced.psi.coeffs)


def test_wrappers_are_removed_when_the_driver_raises():
    before = originals()
    with pytest.raises(ValueError):
        with Tracer().run("driver"):
            run_multimodes(dataclasses.replace(TINY, field="levy"))
    assert originals() == before
