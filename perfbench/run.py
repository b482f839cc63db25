"""Pipeline benchmark of the two Monte Carlo drivers.

    python3 perfbench/run.py --workload mm-solve-L8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

Each workload is one closed-loop caller: one process calling one public
driver (``run_multimodes`` or ``run_standard``) again and again with
``workers=1`` until ``--seconds`` have passed (at least twice).  The driver
sees only the ``RunConfig`` built from ``--seed``.

With ``--trace 0`` every call is untraced and each end-to-end time is
that of the fastest call.  With ``--trace 1`` the calls alternate
untraced / traced; the per-layer metrics are the medians over the traced
calls (see ``tracer.py``), and ``trace_overhead_frac`` compares the two.

Every call passes the correctness gate: ``psi`` is finite, the number of
factorizations is exact, and ``psi`` is bitwise equal to that of the
first call.  After the timed loop, a reduced-M copy of the workload runs
through both drivers with the same seed and their means must agree
within ``(epsilon * max(1, sup|eta|))^(N+1)`` in relative l2 norm.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment
stamp, every call's timings and the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# Shared by every workload (the paper's smooth setting at k=2).
COMMON = dict(k=2.0, epsilon=0.1, gamma0=10.0, gamma1=0.1, q_f=4, ell=0.5,
              workers=1)


@dataclasses.dataclass(frozen=True)
class Workload:
    driver: str          # "multimodes" or "standard"
    L: int
    field: str
    M: int
    N: int               # run_standard ignores N; the cross-check uses it
    gate_M: int          # sample count of the cross-check copy
    why: str


# Calls are kept short (1-4 s) so that a run makes many of them; see the
# note on the fastest call in run_workload.
WORKLOADS = {
    "mm-solve-L8": Workload(
        "multimodes", L=8, field="gaussian", M=16, N=6, gate_M=2,
        why="the paper's algorithm at 6144 dofs: bandwidth-bound triangular "
            "solves (~60%) dominate, the one factorization (~30%) is second"),
    "mm-many-L4": Workload(
        "multimodes", L=4, field="uniform", M=250, N=6, gate_M=20,
        why="1750 tiny call-bound solves at 768 dofs; load kernel, mode source "
            "and driver loop show; no covariance factor, factorization <5%"),
    "std-factor-L6": Workload(
        "standard", L=6, field="gaussian", M=4, N=6, gate_M=3,
        why="the reference estimator at 2592 dofs: a factorization (~80%) and "
            "an assembly (~12%) per sample dominate; solves are ~2%"),
}

END_TO_END = (("total_s", "s"), ("setup_s", "s"), ("samples_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))
FAILED_FRAC = ("failed_frac", "ratio")
UNITS = {
    "mesh.build_s": "s", "random_field.cov_factor_s": "s",
    "random_field.draw_ms": "ms", "random_field.draws": "count",
    "assembly.a_h_s": "s", "assembly.nnz_A": "count",
    "assembly.standard_ms": "ms", "assembly.standard_calls": "count",
    "assembly.load_ms": "ms", "assembly.load_calls": "count",
    "assembly.mode_source_ms": "ms", "assembly.mode_source_calls": "count",
    "linalg.factor_s": "s", "linalg.factorizations": "count",
    "linalg.nnz_LU": "count", "linalg.fill_ratio": "ratio",
    "linalg.solve_calls": "count", "linalg.rhs_solved": "count",
    "linalg.solve_ms_per_rhs": "ms", "linalg.solve_gbps_computed": "GB/s",
    "driver.self_s": "s", "driver.sample_ms_p50": "ms",
    "driver.sample_ms_p90": "ms", "driver.samples": "count",
    "driver.solves_per_sample": "count", "driver.warnings": "count",
    "trace_coverage_frac": "ratio", "trace_overhead_frac": "ratio",
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_mmdg():
    """Import mmdg from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mmdg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mmdg package under {src}")
    sys.path.insert(0, str(src))
    import mmdg
    if Path(mmdg.__file__).resolve().parent != src / "mmdg":
        sys.exit(f"perfbench: imported mmdg from {mmdg.__file__}, not {src}")
    return mmdg


def make_config(w: Workload, seed: int):
    from mmdg.driver import RunConfig
    return RunConfig(L=w.L, M=w.M, N=w.N, field=w.field, seed=seed, **COMMON)


def driver_fn(name: str):
    from mmdg import driver
    return {"multimodes": driver.run_multimodes,
            "standard": driver.run_standard}[name]


def env_stamp(seed: int, cfg) -> dict:
    import numpy
    import scipy
    from mmdg import kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "mmdg_use_numba": kernels.USE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "config": dataclasses.asdict(cfg),
    }


def call_driver(fn, cfg):
    """One driver call with its UserWarnings captured; returns (result,
    wall seconds, warning count)."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        res = fn(cfg)
        wall = time.perf_counter() - t0
    return res, wall, len(caught)


def cross_check(w: Workload, cfg) -> dict:
    """Common-random-numbers check of a reduced-M copy of the workload:
    both drivers, one seed, relative l2 distance of the two means."""
    from mmdg.dg_core import DGField, l2_norm
    from mmdg.driver import run_multimodes, run_standard
    small = dataclasses.replace(cfg, M=w.gate_M)
    mm, _, _ = call_driver(run_multimodes, small)
    std, _, _ = call_driver(run_standard, small)
    diff = DGField(mm.psi.mesh, mm.psi.coeffs - std.psi.coeffs)
    rel = l2_norm(diff) / l2_norm(std.psi)
    sup = max(mm.field_stats["sup_norm_max"], 1.0)
    bound = (cfg.epsilon * sup) ** (cfg.N + 1)
    ok = (bool(rel <= bound) and mm.factorizations == 1
          and std.factorizations == w.gate_M)
    return {"M": w.gate_M, "rel_l2": rel, "bound": bound, "ok": ok}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    from tracer import Tracer, layer_metrics

    w = WORKLOADS[name]
    cfg = make_config(w, seed)
    fn = driver_fn(w.driver)
    expected_facts = 1 if w.driver == "multimodes" else w.M
    env = env_stamp(seed, cfg)

    # First-call costs are paid once per process, not per run, so a small
    # run of the same driver and field pays them before any timing.  L=4 is
    # needed: the first SuperLU factorization of a matrix that size or
    # larger can cost ~0.8 s once per process, which an L=2 run does not pay.
    t0 = time.perf_counter()
    call_driver(fn, dataclasses.replace(cfg, L=4, M=2))
    warmup_s = time.perf_counter() - t0

    tracer = Tracer()
    untraced, traced, problems = [], [], []
    first_psi = None
    deadline = time.perf_counter() + seconds
    while True:
        is_traced = trace and len(untraced) > len(traced)
        try:
            if is_traced:
                with tracer.run(f"driver.run_{w.driver}") as run_id:
                    res, wall, n_warn = call_driver(fn, cfg)
            else:
                res, wall, n_warn = call_driver(fn, cfg)
        except Exception:
            problems.append(traceback.format_exc())
        else:
            psi = res.psi.coeffs
            bad = []
            if not np.isfinite(psi).all():
                bad.append("psi is not finite")
            if res.factorizations != expected_facts:
                bad.append(f"{res.factorizations} factorizations, "
                           f"expected {expected_facts}")
            if first_psi is None:
                first_psi = psi.copy()
            elif psi.tobytes() != first_psi.tobytes():
                bad.append("psi differs bitwise from the first call")
            rep = {"total_s": wall, "setup_s": res.timings["setup_s"],
                   "warnings": n_warn, "traced": is_traced}
            if is_traced:
                rep["layers"], rep["shares"] = layer_metrics(tracer, run_id,
                                                             cfg.M)
                rep["layers"]["driver.warnings"] = n_warn
                if rep["layers"]["linalg.factorizations"] != expected_facts:
                    bad.append("traced factorization count is wrong")
                counts = {k: v for k, v in rep["layers"].items()
                          if UNITS[k] == "count"}
                if traced and counts != {k: traced[0]["layers"][k]
                                         for k in counts}:
                    bad.append("structural counts differ between traced calls")
            if bad:
                problems.append("; ".join(bad))
            else:
                (traced if is_traced else untraced).append(rep)
        done = len(untraced) >= 2 and (not trace or traced)
        if (time.perf_counter() >= deadline and done) or len(problems) > 3:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        gate = cross_check(w, cfg)
    except Exception:
        problems.append(traceback.format_exc())
        gate = {"M": w.gate_M, "rel_l2": float("nan"), "bound": float("nan"),
                "ok": False}
    attempted = len(untraced) + len(traced) + len(problems) + 1
    failed = min(attempted, len(problems) + (not gate["ok"]))

    # Each timing is the fastest call of the process: the host's speed
    # drifts by up to 2x over ~10 s phases, which a median over a run keeps
    # and the fastest of many short calls removes.
    e2e = {}
    if untraced:
        e2e = {"total_s": min(r["total_s"] for r in untraced),
               "setup_s": min(r["setup_s"] for r in untraced),
               "samples_per_s": max(cfg.M / (r["total_s"] - r["setup_s"])
                                    for r in untraced)}
        if not trace:   # traced calls copy the LU factors to count them
            e2e["peak_rss_mb"] = peak_rss_mb
    e2e["failed_frac"] = failed / attempted
    layers = {}
    if traced:
        for key, value in traced[0]["layers"].items():
            layers[key] = value if UNITS[key] == "count" else \
                statistics.median(r["layers"][key] for r in traced)
        if untraced:
            layers["trace_overhead_frac"] = (
                min(r["total_s"] for r in traced) / e2e["total_s"] - 1.0)

    result = {"workload": name, "why": w.why, "env": env,
              "warmup_s": warmup_s, "reps": untraced + traced,
              "problems": problems, "cross_check": gate,
              "end_to_end": e2e, "per_layer": layers,
              "attempted": attempted, "failed": failed}
    if trace:
        result["spans"] = [dataclasses.astuple(s) for s in tracer.spans]
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the contract's JSON line."""
    name = result["workload"]
    print(f"== {name}: {result['why']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    n_untraced = sum(not r["traced"] for r in result["reps"])
    print(f"calls: {n_untraced} untraced, "
          f"{len(result['reps']) - n_untraced} traced; "
          f"warm-up {result['warmup_s']:.3f} s (not in any metric)")
    for p in result["problems"]:
        print("FAILED: " + p)
    gate = result["cross_check"]
    print(f"cross-check M={gate['M']}: rel l2 {gate['rel_l2']:.3e} "
          f"<= {gate['bound']:.3e}: {'ok' if gate['ok'] else 'FAILED'}")
    units = dict(END_TO_END + (FAILED_FRAC,), **UNITS)
    for section in ("end_to_end", "per_layer"):
        for key, value in result[section].items():
            shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6g}"
            print(f"  {key:28s} {shown} {units[key]}")
    traced = [r for r in result["reps"] if r["traced"]]
    if traced:
        shares = sorted(traced[-1]["shares"].items(), key=lambda kv: -kv[1])
        print("self-time shares of the last traced call: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares))

    if trace:
        wanted = [k for k in UNITS if k in result["per_layer"]]
        source = result["per_layer"]
    else:
        wanted = [k for k, _ in END_TO_END if k in result["end_to_end"]]
        source = result["end_to_end"]
    metrics = {k: {"value": source[k], "unit": units[k]} for k in wanted}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Run every workload, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for key, metric in line["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_mmdg()
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    line = report(result, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result))
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if result["end_to_end"].get("total_s") else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
