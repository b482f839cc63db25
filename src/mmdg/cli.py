"""Command-line front end.

Subcommands:
  run       execute one or both algorithms, write manifest + artifacts
  compare   common-random-numbers error/timing table over N = 0..N_max
  kl-info   eigenvalue spectrum of the discrete Karhunen-Loeve basis

Outputs are data-only (CSV/JSON); plotting is left to external tools.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .driver import (
    MCResult,
    RunConfig,
    compare_algorithms,
    run_multimodes,
    run_standard,
)
from .linalg import SingularMatrixError
from .mesh import build_uniform_mesh
from .random_field import CovarianceSpec, compute_kl

EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3

ERRORS_HEADER = ["N", "l2_error", "dg_error", "eps_pow_N",
                 "time_multimodes_s", "time_standard_s"]

PRESETS = {
    # full-scale setups from the reference experiments; scale down with
    # explicit flags (e.g. --L 5 --samples 50) for desk runs
    "paper-smooth": dict(L=10, k=2.0, M=1000, N=6, field="gaussian",
                         ell=0.5, epsilon=0.1),
    "paper-nonsmooth": dict(L=10, k=2.0, M=1000, N=6, field="uniform",
                            epsilon=0.1),
    "desk-small": dict(L=4, k=2.0, M=20, N=4, field="gaussian",
                       ell=0.5, epsilon=0.1),
}

PRESET_EPS_SWEEP = [0.1, 0.3, 0.5, 0.7, 0.9]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", type=Path, default=None,
                   help="key=value config file; flags override file values")
    p.add_argument("--L", type=int, default=None, help="cells per axis")
    p.add_argument("--k", type=float, default=None, help="wave number")
    p.add_argument("--lam", type=float, default=None, help="impedance parameter")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--gamma0", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--samples", type=int, default=None, dest="M")
    p.add_argument("--modes", type=int, default=None, dest="N",
                   help="highest mode index (modes 0..N are used)")
    p.add_argument("--field", choices=["gaussian", "uniform"], default=None)
    p.add_argument("--ell", type=float, default=None, help="correlation length")
    p.add_argument("--clamp", action="store_true", default=None,
                   help="clamp field samples to [-1, 1]")
    p.add_argument("--qf", type=int, default=None, dest="q_f",
                   help="load quadrature points per axis")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", type=Path, default=Path("mmdg-out"))


def _read_config_file(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.preset:
        values.update(PRESETS[args.preset])
    if args.config:
        raw = _read_config_file(args.config)
        fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        for key, val in raw.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            typ = fields[key]
            if typ in ("bool", bool):
                values[key] = val.lower() in ("1", "true", "yes")
            elif typ in ("int", int):
                values[key] = int(val)
            elif typ in ("float", float) or "float" in str(typ):
                values[key] = float(val)
            else:
                values[key] = val
    for name in ("L", "k", "lam", "epsilon", "gamma0", "gamma1", "M", "N",
                 "field", "ell", "clamp", "q_f", "seed", "workers"):
        val = getattr(args, name, None)
        if val is not None:
            values[name] = val
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _write_manifest(outdir: Path, config: RunConfig, extra: dict) -> None:
    manifest = {
        "version": __version__,
        "config": dataclasses.asdict(config),
        "argv": sys.argv[1:],
        **extra,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_solution(path: Path, psi) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dof", "real", "imag"])
        for i, v in enumerate(psi.coeffs):
            w.writerow([i, repr(float(v.real)), repr(float(v.imag))])


def _write_timings(path: Path, named_results: dict[str, MCResult]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "stage", "seconds"])
        for name, res in named_results.items():
            for stage, val in res.timings.items():
                if stage == "per_mode_s":
                    for n, t in enumerate(val):
                        w.writerow([name, f"mode_{n}_s", repr(t)])
                else:
                    w.writerow([name, stage, repr(val)])


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    outdir: Path = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "solution").mkdir(exist_ok=True)
    (outdir / "fields").mkdir(exist_ok=True)

    results: dict[str, MCResult] = {}
    if args.algorithm in ("standard", "both"):
        results["standard"] = run_standard(cfg)
    if args.algorithm in ("multimodes", "both"):
        results["multimodes"] = run_multimodes(cfg)

    for name, res in results.items():
        _write_solution(outdir / "solution" / f"psi_{name}.csv", res.psi)
        if res.mode_means is not None:
            for n, phi in enumerate(res.mode_means):
                _write_solution(outdir / "solution" / f"phi_{n}.csv", phi)

    # dump the first sample's field draws for inspection
    from .driver import _FieldDraws
    mesh = build_uniform_mesh(cfg.L)
    eta0, xi0 = _FieldDraws(mesh, cfg).draw(0)
    eta0.export_csv(outdir / "fields" / "eta_sample0.csv")
    xi0.export_csv(outdir / "fields" / "xi_sample0.csv")

    _write_timings(outdir / "timings.csv", results)
    any_res = next(iter(results.values()))
    _write_manifest(outdir, cfg, {
        "algorithms": sorted(results),
        "matrix_hash": any_res.matrix_hash,
        "diagnostics": any_res.diagnostics,
    })
    for name, res in results.items():
        print(f"{name}: factorizations={res.factorizations} "
              f"total={res.timings['total_s']:.3f}s")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    n_max = args.max_modes if args.max_modes is not None else cfg.N
    outdir: Path = args.out
    outdir.mkdir(parents=True, exist_ok=True)

    if args.eps_sweep:
        eps_list = PRESET_EPS_SWEEP
    else:
        eps_list = [cfg.epsilon]

    all_rows = []
    results = {}
    for eps in eps_list:
        cfg_eps = dataclasses.replace(cfg, epsilon=eps)
        rows, res_std, res_mm = compare_algorithms(cfg_eps, n_max)
        for r in rows:
            r["epsilon"] = eps
        all_rows.extend(rows)
        results[f"standard_eps{eps}"] = res_std
        results[f"multimodes_eps{eps}"] = res_mm

    header = ERRORS_HEADER + (["epsilon"] if len(eps_list) > 1 else [])
    with open(outdir / "errors.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in all_rows:
            w.writerow([r["N"]] + [repr(r[key]) for key in header[1:]])
    _write_timings(outdir / "timings.csv", results)
    any_res = next(iter(results.values()))
    _write_manifest(outdir, cfg, {
        "command": "compare",
        "N_max": n_max,
        "eps_sweep": eps_list,
        "matrix_hash": any_res.matrix_hash,
    })
    for r in all_rows:
        print(f"N={r['N']} l2_error={r['l2_error']:.6e} "
              f"eps^N={r['eps_pow_N']:.3e}")
    return 0


def cmd_kl_info(args: argparse.Namespace) -> int:
    if args.L > 12:
        raise ValueError("kl-info requires L <= 12 (dense eigensolve guard)")
    mesh = build_uniform_mesh(args.L)
    basis = compute_kl(mesh, CovarianceSpec(args.ell))
    lam = basis.eigenvalues
    total = float(lam.sum())
    cum = np.cumsum(lam) / total
    k99 = int(np.searchsorted(cum, 0.99) + 1)

    def _emit(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue", "energy_fraction",
                         "cumulative_energy"])
        for i, lv in enumerate(lam):
            writer.writerow([i + 1, repr(float(lv)), repr(float(lv / total)),
                             repr(float(cum[i]))])

    if args.out is None:
        _emit(sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            _emit(fh)
    print(f"# trace = {total:.12g}, suggested K for 99% energy: {k99}",
          file=sys.stderr)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mmdg",
        description="Multi-modes Monte Carlo IP-DG solver for time-harmonic "
                    "Maxwell equations in weakly random media",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute one or both algorithms")
    _add_config_flags(pr)
    pr.add_argument("--algorithm", choices=["standard", "multimodes", "both"],
                    default="multimodes")
    pr.set_defaults(func=cmd_run)

    pc = sub.add_parser("compare", help="error/timing table over N")
    _add_config_flags(pc)
    pc.add_argument("--max-modes", type=int, default=None)
    pc.add_argument("--eps-sweep", action="store_true",
                    help="sweep epsilon over 0.1, 0.3, 0.5, 0.7, 0.9")
    pc.set_defaults(func=cmd_compare)

    pk = sub.add_parser("kl-info", help="Karhunen-Loeve spectrum")
    pk.add_argument("--L", type=int, required=True)
    pk.add_argument("--ell", type=float, default=0.5)
    pk.add_argument("--out", type=Path, default=None)
    pk.set_defaults(func=cmd_kl_info)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (SingularMatrixError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
