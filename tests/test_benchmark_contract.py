"""The names the benchmark under perfbench/ reads from the package.

perfbench/tracer.py wraps module-level entry points looked up in each
owner's __dict__.  perfbench/run.py stamps kernels.USE_NUMBA, builds a
RunConfig for each of its WORKLOADS, runs one driver on it and reads
psi.coeffs, timings["setup_s"], field_stats["sup_norm_max"] and
factorizations off the result.  A deleted or renamed name would otherwise
surface only as an error inside a benchmark run.  The tracer also cuts
samples at every second random_field.draw span, so each sample must make
exactly two calls of the wrapped draw entry points.  Its layer_metrics
reads Factorization.nnz and the nnz of lu.L and lu.U, which no package
code reads.
"""

import importlib
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmdg.mesh import build_uniform_mesh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(filename):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{Path(filename).stem}", PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


RUN = _load("run.py")
TRACER = _load("tracer.py")
TARGETS = TRACER.TARGETS


def _owner(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@pytest.mark.parametrize("owner, attr, span", TARGETS)
def test_tracer_targets_resolve(owner, attr, span):
    assert attr in _owner(owner).__dict__, f"{owner}.{attr} ({span}) is gone"


@pytest.mark.parametrize("driver", ["multimodes", "standard"])
@pytest.mark.parametrize("field, entry", [
    ("gaussian", "mmdg.random_field:GaussianSampler.sample"),
    ("uniform", "mmdg.driver.sample_uniform"),
])
def test_two_traced_draws_per_sample(driver, field, entry, monkeypatch):
    from mmdg.driver import RunConfig

    draw_targets = [(owner, attr) for owner, attr, span in TARGETS
                    if span == "random_field.draw"]
    assert sorted(draw_targets) == [
        ("mmdg.driver", "sample_uniform"),
        ("mmdg.random_field:GaussianSampler", "sample"),
    ]
    calls = []
    for owner, attr in draw_targets:
        def counting(*args, _f=getattr(_owner(owner), attr),
                     _name=f"{owner}.{attr}", **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(_owner(owner), attr, counting)
    M = 17
    RUN.driver_fn(driver)(RunConfig(L=2, M=M, N=1, field=field))
    assert calls == [entry] * (2 * M)


@pytest.mark.parametrize("driver", ["multimodes", "standard"])
def test_traced_layer_counts(driver):
    from mmdg import linalg
    from mmdg.assembly import assemble_a_h
    from mmdg.driver import SAMPLE_BLOCK, RunConfig

    M, N = 17, 2
    # at L=5 the mirror factor's two parts differ in fill (SuperLU.nnz
    # 7 604 and 7 862)
    for L in (2, 5):
        cfg = RunConfig(L=L, M=M, N=N, workers=1)
        tracer = TRACER.Tracer()
        with tracer.run(f"driver.run_{driver}") as run_id:
            RUN.driver_fn(driver)(cfg)
        m, _ = TRACER.layer_metrics(tracer, run_id, M)
        a_h = assemble_a_h(build_uniform_mesh(L), cfg.k, cfg.lam, cfg.gamma0,
                           cfg.gamma1)
        assert m["assembly.nnz_A"] == a_h.matrix.nnz
        assert m["random_field.draws"] == 2 * M
        if driver == "multimodes":
            assert m["linalg.factorizations"] == 1
            # the tracer reads Factorization.lu as the whole factor: the
            # mirror factor's L and U are the block diagonals of its two
            # SuperLU parts, so their nnz sums the stored blocks
            lu = linalg.factorize(a_h).lu
            assert m["linalg.nnz_LU"] == lu.L.nnz + lu.U.nnz
            # modes 0..N-1 solve a column per sample, mode N one per block
            assert (m["linalg.rhs_solved"]
                    == N * M + math.ceil(M / SAMPLE_BLOCK))
            assert (m["linalg.solve_calls"]
                    == (N + 1) * math.ceil(M / SAMPLE_BLOCK))
        else:
            assert m["linalg.nnz_LU"] > 0
            assert (m["linalg.factorizations"] == m["linalg.rhs_solved"]
                    == m["linalg.solve_calls"] == M)


def test_numba_stamp_field_exists():
    from mmdg import kernels

    assert hasattr(kernels, "USE_NUMBA")


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_runs_and_reports(name):
    w = RUN.WORKLOADS[name]
    cfg = RUN.make_config(w, 0)   # a RunConfig validates on construction
    res = RUN.driver_fn(w.driver)(replace(cfg, L=2, M=2))
    assert np.isfinite(res.psi.coeffs).all()
    assert res.timings["setup_s"] >= 0.0
    assert res.field_stats["sup_norm_max"] >= 0.0
    assert res.factorizations == (1 if w.driver == "multimodes" else 2)
