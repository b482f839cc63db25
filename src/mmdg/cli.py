"""Command-line front end.

Subcommands:
  run       execute one or both algorithms, write manifest + artifacts
  compare   common-random-numbers error/timing table over N = 0..--modes,
            optionally over a sweep of epsilon
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
    FIELD_KINDS,
    MCResult,
    RunConfig,
    _error_rows,
    _FieldDraws,
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
    p.add_argument("--field", choices=FIELD_KINDS, default=None)
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
    defaults = dataclasses.asdict(RunConfig())   # a file value takes its type
    values: dict = {}
    if args.preset:
        values.update(PRESETS[args.preset])
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(defaults[key], bool):
                if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise ValueError(f"config key {key!r} must be a boolean "
                                     f"(1/true/yes or 0/false/no), got {val!r}")
                values[key] = val.lower() in ("1", "true", "yes")
            else:
                values[key] = type(defaults[key])(val)
    for name in defaults:   # each config flag's dest is its field's name
        val = getattr(args, name, None)
        if val is not None:
            values[name] = val
    return RunConfig(**values)


def _write_manifest(outdir: Path, config: RunConfig, argv: list[str],
                    results: dict[str, MCResult], **extra) -> None:
    # one record per run, in one schema for both drivers
    manifest = {
        "version": __version__,
        "config": dataclasses.asdict(config),
        "argv": argv,
        **extra,
        "runs": {name: {"factorizations": res.factorizations,
                        "matrix_hash": res.matrix_hash,
                        "timings": res.timings,
                        "diagnostics": res.diagnostics,
                        "field_stats": res.field_stats}
                 for name, res in results.items()},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_solution(path: Path, psi) -> None:
    _write_csv(path, ["dof", "real", "imag"],
               ([i, repr(float(v.real)), repr(float(v.imag))]
                for i, v in enumerate(psi.coeffs)))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    results: dict[str, MCResult] = {}
    if args.algorithm in ("standard", "both"):
        results["standard"] = run_standard(cfg)
    if args.algorithm in ("multimodes", "both"):
        results["multimodes"] = run_multimodes(cfg)

    # a run that fails writes nothing: the tree is made once the runs return
    outdir: Path = args.out
    (outdir / "solution").mkdir(parents=True, exist_ok=True)
    (outdir / "fields").mkdir(exist_ok=True)
    for name, res in results.items():
        _write_solution(outdir / "solution" / f"psi_{name}.csv", res.psi)
        if res.mode_means is not None:
            for n, phi in enumerate(res.mode_means):
                _write_solution(outdir / "solution" / f"phi_{n}.csv", phi)

    # dump the first sample's field draws for inspection
    mesh = next(iter(results.values())).psi.mesh
    for name, sample in zip(("eta", "xi"), _FieldDraws(mesh, cfg).draw(0)):
        _write_csv(outdir / "fields" / f"{name}_sample0.csv", ["cell", "value"],
                   ([i, repr(float(v))] for i, v in enumerate(sample.values)))

    _write_manifest(outdir, cfg, args.argv, results)
    for name, res in results.items():
        c = res.diagnostics["even_contraction"]
        print(f"{name}: factorizations={res.factorizations} "
              f"total={res.timings['total_s']:.3f}s"
              + (f" max_even_contraction={max(c):.3g}" if c else ""))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    eps_list = PRESET_EPS_SWEEP if args.eps_sweep else [cfg.epsilon]
    all_rows = []
    results: dict[str, MCResult] = {}
    for eps in eps_list:
        cfg_eps = dataclasses.replace(cfg, epsilon=eps)
        name = f"standard_eps{eps}" if args.eps_sweep else "standard"
        res_std = results[name] = run_standard(cfg_eps)
        if "multimodes" not in results:     # its modes serve every epsilon
            results["multimodes"] = run_multimodes(cfg_eps)
        rows = _error_rows(res_std, results["multimodes"])
        for r in rows:
            r["epsilon"] = eps
        all_rows.extend(rows)

    outdir: Path = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    header = ERRORS_HEADER + (["epsilon"] if len(eps_list) > 1 else [])
    _write_csv(outdir / "errors.csv", header,
               ([r["N"]] + [repr(r[key]) for key in header[1:]]
                for r in all_rows))
    _write_manifest(outdir, cfg, args.argv, results, eps_sweep=eps_list)
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

    header = ["index", "eigenvalue", "energy_fraction", "cumulative_energy"]
    rows = [[i + 1, repr(float(lv)), repr(float(lv / total)), repr(float(cum[i]))]
            for i, lv in enumerate(lam)]
    if args.out is None:
        csv.writer(sys.stdout).writerows([header, *rows])
    else:
        _write_csv(args.out, header, rows)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = make_parser().parse_args(argv)
    args.argv = argv
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
