import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mmdg
from mmdg.cli import (ERRORS_HEADER, PRESET_EPS_SWEEP, _build_config, main,
                      make_parser)
from mmdg.driver import RunConfig, _FieldDraws
from mmdg.mesh import build_uniform_mesh


def run_cli(args):
    return main([str(a) for a in args])


def test_run_multimodes_smoke(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["run", "--algorithm", "multimodes", "--L", 4, "--k", 2,
                  "--epsilon", 0.1, "--modes", 4, "--samples", 20,
                  "--seed", 7, "--out", out])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["L"] == 4
    assert manifest["config"]["seed"] == 7
    assert set(manifest["runs"]) == {"multimodes"}
    assert manifest["runs"]["multimodes"]["factorizations"] == 1
    assert (out / "solution" / "psi_multimodes.csv").exists()
    assert (out / "solution" / "phi_4.csv").exists()
    assert (out / "fields" / "eta_sample0.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "fields", "manifest.json", "solution"]


def _read_solution(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    import numpy as np

    return np.array([float(r["real"]) + 1j * float(r["imag"]) for r in rows])


def test_eps_zero_algorithms_agree(tmp_path):
    sols = {}
    for algo in ("standard", "multimodes"):
        out = tmp_path / algo
        rc = run_cli(["run", "--algorithm", algo, "--L", 2, "--epsilon", 0,
                      "--modes", 2, "--samples", 3, "--seed", 1, "--out", out])
        assert rc == 0
        sols[algo] = _read_solution(out / "solution" / f"psi_{algo}.csv")
    import numpy as np

    a, b = sols["standard"], sols["multimodes"]
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_compare_preset_desk_scale(tmp_path):
    out = tmp_path / "cmp"
    rc = run_cli(["compare", "--preset", "paper-smooth", "--L", 3,
                  "--samples", 5, "--modes", 6, "--seed", 2,
                  "--out", out])
    assert rc == 0
    with open(out / "errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ERRORS_HEADER
    assert len(rows) == 1 + 7  # N = 0..6
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[6] < errs[0]


def test_compare_eps_sweep_runs_multimodes_once(tmp_path, monkeypatch):
    from mmdg import cli, driver
    from mmdg.driver import compare_algorithms

    calls = []
    run_multimodes = driver.run_multimodes

    def counting(config):
        calls.append(config.epsilon)
        return run_multimodes(config)

    # count calls through the CLI's own import and through compare_algorithms
    monkeypatch.setattr(driver, "run_multimodes", counting)
    monkeypatch.setattr(cli, "run_multimodes", counting)
    out = tmp_path / "sweep"
    rc = run_cli(["compare", "--L", 2, "--samples", 3, "--modes", 2,
                  "--seed", 5, "--eps-sweep", "--out", out])
    assert rc == 0
    assert len(calls) == 1
    monkeypatch.undo()
    with open(out / "errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ERRORS_HEADER + ["epsilon"]
    assert len(rows) == 1 + 5 * 3
    cfg = RunConfig(L=2, M=3, N=2, seed=5)
    for i, eps in enumerate(PRESET_EPS_SWEEP):
        ref, _, _ = compare_algorithms(dataclasses.replace(cfg, epsilon=eps), 2)
        for r, g in zip(ref, rows[1 + 3 * i: 4 + 3 * i], strict=True):
            assert [int(g[0]), float(g[1]), float(g[2]), float(g[6])] == [
                r["N"], r["l2_error"], r["dg_error"], eps]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["eps_sweep"] == PRESET_EPS_SWEEP
    assert set(manifest["runs"]) == {"multimodes"} | {
        f"standard_eps{e}" for e in PRESET_EPS_SWEEP}
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv",
                                                     "manifest.json"]


@pytest.mark.parametrize("command", [["compare"], ["run", "--algorithm", "both"]],
                         ids=["compare", "run-both"])
def test_manifest_hash_reuses_the_runs_a_h(tmp_path, monkeypatch, command):
    from mmdg import driver
    from mmdg.assembly import assemble_a_h

    calls = []

    def counting(*args):
        calls.append(1)
        return assemble_a_h(*args)

    monkeypatch.setattr(driver, "assemble_a_h", counting)
    out = tmp_path / "out"
    rc = run_cli([*command, "--L", 3, "--samples", 2, "--modes", 1,
                  "--k", 3, "--out", out])
    assert rc == 0
    assert len(calls) == 1           # the multimodes run's own A_h
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = RunConfig(k=3.0)
    assert manifest["runs"]["multimodes"]["matrix_hash"] == assemble_a_h(
        build_uniform_mesh(3), cfg.k, cfg.lam, cfg.gamma0, cfg.gamma1
    ).content_hash()


def test_reference_run_records_no_matrix_hash(tmp_path, monkeypatch):
    from mmdg import driver

    def no_assembly(*args):
        raise AssertionError("a reference run assembled A_h")

    monkeypatch.setattr(driver, "assemble_a_h", no_assembly)
    out = tmp_path / "out"
    assert run_cli(["run", "--algorithm", "standard", "--L", 2,
                    "--samples", 2, "--modes", 1, "--out", out]) == 0
    record = json.loads((out / "manifest.json").read_text())["runs"]
    assert set(record) == {"standard"}
    assert "matrix_hash" in record["standard"]
    assert record["standard"]["matrix_hash"] is None
    assert record["standard"]["diagnostics"]["factor"]["ordering"] == "mmd"


def test_manifests_carry_the_multimodes_health(tmp_path, capsys):
    def no_constant(name):
        raise ValueError(f"manifest holds {name}")

    diagnostics = {}
    for command in (["run", "--algorithm", "both"], ["compare"]):
        out = tmp_path / command[0]
        assert run_cli([*command, "--L", 2, "--samples", 3, "--modes", 4,
                        "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=no_constant)
        diagnostics[command[0]] = {name: run["diagnostics"]
                                   for name, run in manifest["runs"].items()}
    # both commands record both runs' norms, contraction, factor, backward
    # error and BLAS threads
    assert diagnostics["run"] == diagnostics["compare"]
    mm = diagnostics["run"]["multimodes"]
    assert set(mm) == {"mode_l2_norms", "even_contraction", "factor",
                       "backward_error", "blas_threads"}
    for run in diagnostics.values():
        assert {r["blas_threads"] for r in run.values()} == {mm["blas_threads"]}
    assert mm["blas_threads"] in (1, "unmanaged")
    factor = mm["factor"]
    assert set(factor) == {"ordering", "nnz_A", "nnz_LU"}
    assert factor["ordering"] == "mmd" and factor["nnz_LU"] > 0
    assert len(mm["mode_l2_norms"]) == 5
    assert len(diagnostics["run"]["standard"]["mode_l2_norms"]) == 1
    contraction = mm["even_contraction"]
    assert len(contraction) == 2
    printed = capsys.readouterr().out
    assert f"max_even_contraction={max(contraction):.3g}" in printed


RUN_FIELDS = {"factorizations", "matrix_hash", "timings", "diagnostics",
              "field_stats"}


def test_run_both_records_both_runs(tmp_path):
    from mmdg.assembly import assemble_a_h

    out = tmp_path / "out"
    assert run_cli(["run", "--algorithm", "both", "--L", 2, "--samples", 3,
                    "--modes", 1, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"version", "config", "argv", "runs"}
    runs = manifest["runs"]
    assert set(runs) == {"standard", "multimodes"}
    assert all(set(run) == RUN_FIELDS for run in runs.values())
    # the reference factors once per sample and builds no A_h
    std = runs["standard"]
    assert std["factorizations"] == 3 and std["matrix_hash"] is None
    assert std["diagnostics"]["factor"]["ordering"] == "mmd"
    # the multi-modes run factors A_h once
    mm = runs["multimodes"]
    cfg = RunConfig()
    assert mm["factorizations"] == 1
    assert mm["matrix_hash"] == assemble_a_h(
        build_uniform_mesh(2), cfg.k, cfg.lam, cfg.gamma0, cfg.gamma1
    ).content_hash()
    assert set(mm["timings"]) == set(std["timings"]) | {"assembly_s",
                                                        "factorization_s"}


def _bits(timings):
    return {stage: np.asarray(val, dtype=float).tobytes()
            for stage, val in timings.items()}


@pytest.mark.parametrize("command", [["run", "--algorithm", "both"],
                                     ["compare", "--eps-sweep"]],
                         ids=["run-both", "compare-sweep"])
def test_manifest_records_each_run_bitwise(tmp_path, monkeypatch, command):
    from mmdg import cli

    sweep = "--eps-sweep" in command
    made = {}

    def capturing(name, run):
        def wrapped(config):
            key = (f"standard_eps{config.epsilon}"
                   if sweep and name == "standard" else name)
            made[key] = run(config)
            return made[key]
        return wrapped

    for name in ("standard", "multimodes"):
        monkeypatch.setattr(cli, f"run_{name}",
                            capturing(name, getattr(cli, f"run_{name}")))
    out = tmp_path / "out"
    assert run_cli([*command, "--L", 2, "--samples", 2, "--modes", 1,
                    "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == ({"version", "config", "argv", "runs"}
                             | ({"eps_sweep"} if sweep else set()))
    assert set(manifest["runs"]) == set(made)
    for name, res in made.items():
        run = manifest["runs"][name]
        assert set(run) == RUN_FIELDS
        assert _bits(run["timings"]) == _bits(res.timings)
        assert run["factorizations"] == res.factorizations
        assert run["matrix_hash"] == res.matrix_hash
        assert run["diagnostics"] == res.diagnostics
        assert run["field_stats"] == res.field_stats


def test_compare_manifest_records_the_modes_it_ran(tmp_path):
    out = tmp_path / "cmp"
    assert run_cli(["compare", "--L", 2, "--samples", 2, "--modes", 1,
                    "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["N"] == 1
    runs = manifest["runs"]
    assert len(runs["multimodes"]["diagnostics"]["mode_l2_norms"]) == 2
    assert len(runs["multimodes"]["timings"]["per_mode_s"]) == 2


def test_golden_csv_headers(tmp_path):
    # schema stability: pinned headers
    assert ERRORS_HEADER == ["N", "l2_error", "dg_error", "eps_pow_N",
                             "time_multimodes_s", "time_standard_s"]
    out = tmp_path / "t"
    run_cli(["run", "--L", 2, "--samples", 1, "--modes", 1, "--out", out])
    with open(out / "fields" / "eta_sample0.csv") as fh:
        assert next(csv.reader(fh)) == ["cell", "value"]
    with open(out / "solution" / "psi_multimodes.csv") as fh:
        assert next(csv.reader(fh)) == ["dof", "real", "imag"]


def test_invalid_config_exit_code(tmp_path):
    rc = run_cli(["run", "--L", 0, "--out", tmp_path / "x"])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--k", "nan"),
    ("--lam", "nan"), ("--gamma0", "inf"), ("--ell", "nan"), ("--seed", -1),
])
def test_non_finite_config_exit_code(tmp_path, capsys, flag, value):
    # an invalid config is refused before anything runs or is written
    out = tmp_path / "x"
    rc = run_cli(["run", "--L", 2, "--samples", 2, "--modes", 1,
                  flag, value, "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_compare_bad_modes_writes_nothing(tmp_path, capsys):
    # an invalid config is refused before the output directory is made
    out = tmp_path / "x"
    rc = run_cli(["compare", "--L", 2, "--samples", 2, "--modes", -1,
                  "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    # --modes is the one flag that sets N
    with pytest.raises(SystemExit) as exc:
        run_cli(["compare", "--max-modes", 2, "--out", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_every_config_flag_sets_its_field():
    argv = ["run", "--L", "3", "--k", "1.5", "--lam", "2.5",
            "--epsilon", "0.2", "--gamma0", "7", "--gamma1", "0.3",
            "--samples", "9", "--modes", "5", "--field", "uniform",
            "--ell", "0.25", "--clamp", "--qf", "3", "--seed", "6",
            "--workers", "2"]
    cfg = _build_config(make_parser().parse_args(argv))
    assert cfg == RunConfig(L=3, k=1.5, lam=2.5, epsilon=0.2, gamma0=7.0,
                            gamma1=0.3, M=9, N=5, field="uniform", ell=0.25,
                            clamp=True, q_f=3, seed=6, workers=2)
    # every field moved off its default: a field with no flag fails here
    default = RunConfig()
    moved = {f.name for f in dataclasses.fields(RunConfig)
             if getattr(cfg, f.name) != getattr(default, f.name)}
    assert moved == {f.name for f in dataclasses.fields(RunConfig)}


def test_every_config_key_sets_its_field(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("L = 3\nk = 1.5\nlam = 2.5\nepsilon = 0.2\ngamma0 = 7\n"
                    "gamma1 = 0.3\nM = 9\nN = 5\nfield = uniform\n"
                    "ell = 0.25\nclamp = yes\nq_f = 3\nseed = 6\n"
                    "workers = 2\n")
    cfg = _build_config(make_parser().parse_args(["run", "--config",
                                                  str(path)]))
    expected = RunConfig(L=3, k=1.5, lam=2.5, epsilon=0.2, gamma0=7.0,
                         gamma1=0.3, M=9, N=5, field="uniform", ell=0.25,
                         clamp=True, q_f=3, seed=6, workers=2)
    assert cfg == expected
    # each value has its field's type, not merely an equal value
    for f in dataclasses.fields(RunConfig):
        assert type(getattr(cfg, f.name)) is type(getattr(expected, f.name))
    default = RunConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(RunConfig))
    # a value that does not convert to its field's type is refused
    path.write_text("L = 2\nM = 2.5\n")
    out = tmp_path / "x"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    assert not out.exists()


def test_field_csv_export(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--L", 2, "--samples", 1, "--modes", 1,
                    "--seed", 8, "--out", out]) == 0
    cfg = RunConfig(L=2, M=1, N=1, seed=8)
    mesh = build_uniform_mesh(cfg.L)
    for name, sample in zip(("eta", "xi"), _FieldDraws(mesh, cfg).draw(0)):
        with open(out / "fields" / f"{name}_sample0.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "value"]
        assert [int(r[0]) for r in rows[1:]] == list(range(mesh.n_cells))
        values = np.array([float(r[1]) for r in rows[1:]])
        assert values.tobytes() == sample.values.tobytes()


def test_non_finite_solution_exit_code(tmp_path, monkeypatch):
    from mmdg import driver

    def nan_load(mesh, xi, k, q_f=4):
        return np.full((12 * mesh.n_cells, *np.shape(xi)[1:]), np.nan,
                       dtype=complex)

    monkeypatch.setattr(driver, "assemble_oscillatory_load", nan_load)
    out = tmp_path / "x"
    rc = run_cli(["run", "--L", 2, "--samples", 2, "--modes", 1,
                  "--out", out])
    assert rc == 3
    assert not out.exists()            # a failed run writes nothing


def test_singular_matrix_exit_code(tmp_path, monkeypatch, capsys):
    from mmdg import linalg

    def singular(A):
        raise linalg.SingularMatrixError("matrix is numerically singular")

    monkeypatch.setattr(linalg, "factorize", singular)
    for command in (["run", "--algorithm", "multimodes"],
                    ["run", "--algorithm", "standard"], ["compare"]):
        out = tmp_path / command[-1]
        rc = run_cli([*command, "--L", 2, "--samples", 2, "--modes", 1,
                      "--out", out])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()        # a failed run writes nothing


@pytest.mark.parametrize("line", ["C0_user = 1.0", "Chat0_user = 1.0",
                                  "kind = exponential", "mu_user = 1.0"],
                         ids=["C0_user", "Chat0_user", "kind", "mu_user"])
def test_config_file_unknown_key_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"L = 2\n{line}\n")
    rc = run_cli(["run", "--config", cfg, "--out", tmp_path / "x"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nepsilon = 0.2\nM = 2\nN = 1\n# comment\n")
    out = tmp_path / "out"
    rc = run_cli(["run", "--config", cfg, "--epsilon", 0.1, "--out", out])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["L"] == 3
    assert manifest["config"]["epsilon"] == 0.1  # flag wins


@pytest.mark.parametrize("text, expected", [("ture", None), ("false", False),
                                             ("yes", True)])
def test_config_file_bool_values(tmp_path, capsys, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"L = 2\nM = 1\nN = 1\nclamp = {text}\n")
    out = tmp_path / "out"
    rc = run_cli(["run", "--config", cfg, "--out", out])
    if expected is None:
        assert rc == 2
        assert "clamp" in capsys.readouterr().err
    else:
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["clamp"] is expected


def test_manifest_records_argv_passed_to_main(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--its-own-flag"])
    out = tmp_path / "out"
    argv = ["run", "--L", "2", "--samples", "1", "--modes", "1",
            "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["argv"] == argv


def test_manifest_reproducibility(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(["run", "--L", 2, "--samples", 2, "--modes", 2,
                 "--seed", 5, "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        data = (out / "solution" / "psi_multimodes.csv").read_bytes()
        hashes.append((manifest["runs"]["multimodes"]["matrix_hash"],
                       hashlib.sha256(data).hexdigest()))
    assert hashes[0] == hashes[1]


def test_kl_info(tmp_path, capsys):
    out = tmp_path / "kl.csv"
    rc = run_cli(["kl-info", "--L", 4, "--ell", 0.5, "--out", out])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "energy_fraction",
                       "cumulative_energy"]
    lam = [float(r[1]) for r in rows[1:]]
    assert len(lam) == 64
    assert all(a >= b - 1e-12 for a, b in zip(lam, lam[1:]))
    assert sum(lam) == pytest.approx(64.0, rel=1e-10)


@pytest.mark.parametrize("ell", ["nan", "inf"])
def test_kl_info_non_finite_ell_exit_code(capsys, ell):
    rc = run_cli(["kl-info", "--L", 2, "--ell", ell])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: correlation length")


def test_kl_info_guard():
    rc = run_cli(["kl-info", "--L", 13])
    assert rc == 2


def test_kl_info_correlation_length_effect(tmp_path):
    fracs = {}
    for ell in (0.5, 0.1):
        out = tmp_path / f"kl_{ell}.csv"
        run_cli(["kl-info", "--L", 4, "--ell", ell, "--out", out])
        with open(out) as fh:
            rows = list(csv.reader(fh))
        fracs[ell] = float(rows[1][2])  # energy fraction of the top mode
    assert fracs[0.1] < fracs[0.5]


def test_kl_info_near_rank_one(tmp_path):
    out = tmp_path / "kl_big.csv"
    run_cli(["kl-info", "--L", 3, "--ell", 1000, "--out", out])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][2]) >= 0.99


def test_package_imports_leave_out_heavy_scipy_modules():
    # peak_rss_mb in the benchmark has a 10% bound: scipy.spatial adds
    # ~7 MB and scipy.stats ~37 MB to a process that peaks near 70 MB
    src = os.path.dirname(os.path.dirname(mmdg.__file__))
    code = (
        "import sys\n"
        "import mmdg.cli\n"
        "from mmdg.driver import RunConfig, run_multimodes, run_standard\n"
        "cfg = RunConfig(L=2, M=2, N=1)\n"
        "run_multimodes(cfg)\n"
        "run_standard(cfg)\n"
        "print(sorted(m for m in sys.modules\n"
        "            if m.split('.')[:2] in (['scipy', 'spatial'],\n"
        "                                    ['scipy', 'stats'])))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
