import csv
import hashlib
import json

import numpy as np
import pytest

from mmdg.cli import ERRORS_HEADER, main


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
    assert "matrix_hash" in manifest
    assert (out / "solution" / "psi_multimodes.csv").exists()
    assert (out / "solution" / "phi_4.csv").exists()
    assert (out / "fields" / "eta_sample0.csv").exists()
    assert (out / "timings.csv").exists()


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
                  "--samples", 5, "--max-modes", 6, "--seed", 2,
                  "--out", out])
    assert rc == 0
    with open(out / "errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ERRORS_HEADER
    assert len(rows) == 1 + 7  # N = 0..6
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[6] < errs[0]


def test_golden_csv_headers(tmp_path):
    # schema stability: pinned headers
    assert ERRORS_HEADER == ["N", "l2_error", "dg_error", "eps_pow_N",
                             "time_multimodes_s", "time_standard_s"]
    out = tmp_path / "t"
    run_cli(["run", "--L", 2, "--samples", 1, "--modes", 1, "--out", out])
    with open(out / "timings.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["algorithm", "stage", "seconds"]
    with open(out / "fields" / "eta_sample0.csv") as fh:
        assert next(csv.reader(fh)) == ["cell", "value"]
    with open(out / "solution" / "psi_multimodes.csv") as fh:
        assert next(csv.reader(fh)) == ["dof", "real", "imag"]


def test_invalid_config_exit_code(tmp_path):
    rc = run_cli(["run", "--L", 0, "--out", tmp_path / "x"])
    assert rc == 2


def test_non_finite_solution_exit_code(tmp_path, monkeypatch):
    from mmdg import driver

    def nan_load(mesh, xi, k, q_f=4):
        return np.full((12 * mesh.n_cells, *np.shape(xi)[1:]), np.nan,
                       dtype=complex)

    monkeypatch.setattr(driver, "assemble_oscillatory_load", nan_load)
    rc = run_cli(["run", "--L", 2, "--samples", 2, "--modes", 1,
                  "--out", tmp_path / "x"])
    assert rc == 3


def test_singular_matrix_exit_code(tmp_path, monkeypatch, capsys):
    from mmdg import linalg

    def singular(A):
        raise linalg.SingularMatrixError("matrix is numerically singular")

    monkeypatch.setattr(linalg, "factorize", singular)
    for algorithm in ("multimodes", "standard"):
        rc = run_cli(["run", "--algorithm", algorithm, "--L", 2,
                      "--samples", 2, "--modes", 1,
                      "--out", tmp_path / algorithm])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["C0_user = 1.0", "Chat0_user = 1.0",
                                  "kind = exponential"],
                         ids=["C0_user", "Chat0_user", "kind"])
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


def test_manifest_reproducibility(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(["run", "--L", 2, "--samples", 2, "--modes", 2,
                 "--seed", 5, "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        data = (out / "solution" / "psi_multimodes.csv").read_bytes()
        hashes.append((manifest["matrix_hash"], hashlib.sha256(data).hexdigest()))
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
