import dataclasses
import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mmdg import linalg
from mmdg.assembly import SystemMatrix, assemble_a_h, assemble_standard
from mmdg.dg_core import CENTRE, DGField, eval_field
from mmdg.driver import RunConfig, run_standard
from mmdg.linalg import mirror_orbits
from mmdg.mesh import build_uniform_mesh


def test_identity_solve():
    fact = linalg.factorize(sp.identity(5, dtype=complex, format="csc"))
    b = np.arange(5, dtype=complex)
    assert np.array_equal(linalg.solve(fact, b), b)


def test_hand_2x2_complex():
    A = sp.csc_matrix(np.array([[2.0, 1j], [-1j, 1.0]]))
    fact = linalg.factorize(A)
    x = linalg.solve(fact, np.array([1.0, 0.0], dtype=complex))
    # det = 2 - (i)(-i) = 1; inverse row gives x = (1, i)
    assert np.allclose(x, [1.0, 1j], atol=1e-14)
    assert np.linalg.norm(A @ x - [1, 0]) <= 1e-14


def test_maxwell_matrix_vs_dense_oracle():
    mesh = build_uniform_mesh(2)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    rng = np.random.default_rng(0)
    n = A.matrix.shape[0]
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = linalg.solve(linalg.factorize(A), b)
    assert np.linalg.norm(A.matrix @ x - b) <= 1e-10 * np.linalg.norm(b)
    x_dense = np.linalg.solve(A.matrix.toarray(), b)
    assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)


def _q(orbits):
    """The mirror basis Q = C S in monomial coefficients, built as
    triplets from the orbit table: each nonzero C[dst, src] of a cell
    block times the sign at (cell, sector, src)."""
    C = np.kron(np.eye(3), CENTRE)
    nc = orbits.sign.shape[0]
    dst, src = np.nonzero(C)
    v = orbits.sign[:, :, src] * C[dst, src]
    rows = np.broadcast_to(12 * np.arange(nc)[:, None, None] + dst, v.shape)
    keep = v != 0
    return sp.csr_matrix((v[keep], (rows[keep], orbits.column[:, :, src][keep])),
                         shape=(12 * nc, 12 * nc))


def _unsplit(orbits):
    """The orbit table with every column its own image: U permutes the
    columns into chunk order, and half_blocks folds the 4 distinct
    unsplit sector blocks of Q^T A Q, of sectors 0, 7 and 1, 3."""
    return orbits._replace(pair=np.arange(orbits.pair.size))


# U's halves go by sector in four chunks; chunks 2 and 3 are the images of
# chunk 1 under the axis cycle x -> y -> z -> x
CHUNK_ORDER = [0, 7, 1, 3, 2, 6, 4, 5]


def _by_chunk(blocks):
    """(start, block) for U's four chunks: D_07 on chunk 0, D_13 on each
    of chunks 1, 2, 3."""
    fixed, cycled = blocks
    n07, n13 = fixed.shape[0], cycled.shape[0]
    return [(0, fixed)] + [(n07 + k * n13, cycled) for k in range(3)]


def _cycle(L, cells, loc, k):
    """The k-th power of the axis cycle on cells and local dofs: cell
    (i, j, l) goes to (l, i, j), component c to c + 1 and monomial t_a to
    t_(a+1), axes counted mod 3."""
    ijk = np.array(np.unravel_index(cells, (L,) * 3))
    c, m = loc // 4, loc % 4
    return (np.ravel_multi_index(tuple(np.roll(ijk, k, axis=0)), (L,) * 3),
            4 * ((c + k) % 3) + np.where(m == 0, 0, (m - 1 + k) % 3 + 1))


# the arguments factorize gives every splu call: minimum degree on A + A^T,
# the symmetric elimination tree, diagonal pivots down to 0.1 of a column
THE_RULE = ("MMD_AT_PLUS_A", {"SymmetricMode": True, "DiagPivotThresh": 0.1})


def _record_splu(monkeypatch):
    """The list that (columns, (permc_spec, options)) of every later splu
    call is appended to."""
    calls = []
    splu = spla.splu

    def record(A, **kw):
        calls.append((A.shape[0], (kw.get("permc_spec"), kw.get("options"))))
        return splu(A, **kw)

    monkeypatch.setattr(linalg.spla, "splu", record)
    return calls


def _halves_of(orbits, U):
    """The half of each column of QU: 2 * sector, plus 1 where the
    column is odd under its sector's swap (U's entries differ in sign)."""
    Uc = U.tocsc()
    first = Uc.indptr[:-1]
    odd = (np.diff(Uc.indptr) == 2) & (np.minimum.reduceat(Uc.data, first) < 0)
    return 2 * orbits.sector[Uc.indices[first]] + odd


def test_lu_reconstruction_residual():
    # each part of the factor is that of its diagonal block of (QU)^T A_h
    # QU in the mirror basis split by the swaps, with its cross-half
    # round-off dropped: chunk 0 (sectors 0, 7) and chunk 1 (sectors 1, 3)
    mesh = build_uniform_mesh(2)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    fact = linalg.factorize(A)
    orbits = mirror_orbits(mesh)
    U = fact.lu.halves[0]
    QU = _q(orbits) @ U
    half = _halves_of(orbits, U)
    B = (QU.T @ A.matrix @ QU).toarray()
    same = half[:, None] == half[None, :]
    kept = np.where(same, B, 0.0)
    assert np.abs(B[~same]).max() <= 1e-14 * np.abs(B).max()
    start = 0
    for lu in fact.lu.parts:
        n = lu.shape[0]
        Pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))),
                           shape=(n, n))
        Pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)),
                           shape=(n, n))
        recon = (Pr.T @ (lu.L @ lu.U) @ Pc.T).toarray()
        block = kept[start:start + n, start:start + n]
        rel = np.abs(recon - block).max() / np.abs(block).max()
        assert rel <= 1e-10
        start += n


def test_zero_rhs_and_determinism():
    mesh = build_uniform_mesh(2)
    fact = linalg.factorize(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1))
    z = linalg.solve(fact, np.zeros(fact.n, dtype=complex))
    assert np.all(z == 0)
    rng = np.random.default_rng(1)
    b = rng.normal(size=fact.n).astype(complex)
    x1 = linalg.solve(fact, b)
    x2 = linalg.solve(fact, b)
    assert np.array_equal(x1, x2)


def test_dimension_mismatch():
    fact = linalg.factorize(sp.identity(4, dtype=complex, format="csc"))
    with pytest.raises(ValueError):
        linalg.solve(fact, np.zeros(5, dtype=complex))


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        linalg.factorize(sp.csc_matrix(np.ones((2, 3))))


def test_singular_matrix_raises():
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.factorize(A)


def test_residual_bound_across_mesh_sizes():
    rng = np.random.default_rng(2)
    for L in (1, 2, 4):
        A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
        fact = linalg.factorize(A)
        n = A.matrix.shape[0]
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = linalg.solve(fact, b)
        denom = (sp.linalg.norm(A.matrix) * np.linalg.norm(x)
                 + np.linalg.norm(b))
        assert np.linalg.norm(A.matrix @ x - b) / denom <= 1e-9


def test_concurrent_solves_match_sequential():
    from concurrent.futures import ThreadPoolExecutor

    mesh = build_uniform_mesh(3)
    fact = linalg.factorize(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1))
    rng = np.random.default_rng(3)
    rhs = [rng.normal(size=fact.n) + 1j * rng.normal(size=fact.n)
           for _ in range(8)]
    seq = [linalg.solve(fact, b) for b in rhs]
    with ThreadPoolExecutor(max_workers=4) as ex:
        par = list(ex.map(lambda b: linalg.solve(fact, b), rhs))
    for a, b in zip(seq, par):
        assert np.array_equal(a, b)


def test_reuse_beats_refactorization():
    # 100 solves against one stored factorization must be much cheaper
    # than 100 factorizations
    mesh = build_uniform_mesh(5)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    rng = np.random.default_rng(4)
    n = A.matrix.shape[0]
    b = rng.normal(size=n) + 1j * rng.normal(size=n)

    fact = linalg.factorize(A)
    linalg.solve(fact, b)  # warm up
    n_rep = 100
    t0 = time.perf_counter()
    for _ in range(n_rep):
        linalg.solve(fact, b)
    t_solve = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n_rep):
        linalg.solve(linalg.factorize(A), b)
    t_factor = time.perf_counter() - t0
    assert t_factor / t_solve >= 5.0


def test_block_solve_matches_column_solves():
    rng = np.random.default_rng(5)
    B = 5
    for L in (3, 4):
        mesh = build_uniform_mesh(L)
        fact = linalg.factorize(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1))
        b = rng.normal(size=(fact.n, B)) + 1j * rng.normal(size=(fact.n, B))
        x = linalg.solve(fact, b)
        assert x.shape == (fact.n, B)
        for col in range(B):
            assert np.array_equal(x[:, col], linalg.solve(fact, b[:, col]))


def test_block_solve_shape_mismatch():
    fact = linalg.factorize(sp.identity(4, dtype=complex, format="csc"))
    with pytest.raises(ValueError):
        linalg.solve(fact, np.zeros((5, 3), dtype=complex))
    with pytest.raises(ValueError):
        linalg.solve(fact, np.zeros((4, 3, 2), dtype=complex))


def test_ordering_keeps_fill_low():
    # the symmetric factor of the 8 distinct half-blocks fills A_h 0.30x
    # at L=4 (L + U hold 5 728 entries); the coupled factor with partial
    # pivoting fills it 6.3x with minimum degree on A + A^T and 10.2x with
    # COLAMD
    A = assemble_a_h(build_uniform_mesh(4), 2.0, 1.0, 10.0, 0.1)
    fact = linalg.factorize(A)
    nnz_lu = fact.lu.L.nnz + fact.lu.U.nnz
    assert nnz_lu / A.matrix.nnz < 8.0


@pytest.mark.parametrize("L", [4, 6])
def test_mirror_blocks_cut_the_fill(L):
    # factoring the 8 distinct half-blocks apart fills 0.048x of the
    # coupled minimum-degree factor's L + U at L=4 and 0.043x at L=6, so a
    # silent return to the coupled factor fails here without any timing
    A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
    fact = linalg.factorize(A)
    coupled = spla.splu(A.matrix, permc_spec="MMD_AT_PLUS_A")
    assert fact.nnz == A.matrix.nnz
    assert (fact.lu.L.nnz + fact.lu.U.nnz
            < 0.4 * (coupled.L.nnz + coupled.U.nnz))


def test_mirror_factor_refuses_an_asymmetric_matrix():
    mesh = build_uniform_mesh(3)
    alpha = 1.0 + 0.1 * np.random.default_rng(6).uniform(-1, 1, mesh.n_cells)
    A = assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, alpha)
    linalg.factorize(A)                       # unmarked: the coupled factor
    with pytest.raises(ValueError, match="not mirror-invariant"):
        linalg.factorize(dataclasses.replace(A, mirror_mesh=mesh))


def test_mirror_solve_matches_coupled_solve():
    # odd L has mid-plane cells, and cells on each swap's diagonal, where
    # the swaps' fixed points are
    rng = np.random.default_rng(7)
    for L in (1, 2, 3, 5, 6):
        A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
        n = A.matrix.shape[0]
        b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x = linalg.solve(linalg.factorize(A), b)
        ref = spla.splu(A.matrix, permc_spec="MMD_AT_PLUS_A").solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(A.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 8])
def test_mirror_basis_is_square_and_grouped(L):
    mesh = build_uniform_mesh(L)
    orbits = mirror_orbits(mesh)
    S, sector = orbits.S, orbits.sector
    assert S.shape == (12 * L**3, 12 * L**3)
    assert np.all(np.diff(sector) >= 0)
    sizes = np.bincount(sector, minlength=8)
    assert sizes.sum() == 12 * L**3
    if L == 1:                       # one sector is empty
        assert sizes.tolist() == [3, 1, 1, 2, 1, 2, 2, 0]
    if L <= 3:
        assert np.linalg.matrix_rank(S.toarray()) == 12 * L**3
    # the representatives' columns number each column once, in its sector
    reps = orbits.rep == np.arange(mesh.n_cells)
    has = orbits.sign[reps] != 0
    columns = orbits.column[reps][has]
    assert np.array_equal(np.sort(columns), np.arange(12 * L**3))
    assert np.array_equal(sector[columns], np.nonzero(has)[1])
    # at every L the columns of sectors 0, 1, 3 and 7 run by
    # representative in index order of the representatives' box, then by
    # local dof; the other sectors are numbered as their images under the
    # axis cycle (test_cycled_sectors_are_numbered_as_images)
    R = (L + 1) // 2
    box = np.unravel_index(np.arange(R**3), (R,) * 3)
    cells = np.ravel_multi_index(box, (L,) * 3)
    in_order = orbits.column[cells].transpose(1, 0, 2)
    kept = orbits.sign[cells].transpose(1, 0, 2) != 0
    for s in (0, 1, 3, 7):
        assert np.array_equal(in_order[s][kept[s]],
                              np.flatnonzero(sector == s))
    # every factor reports the one ordering, at every L
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    assert linalg.factorize(A).stats["ordering"] == "mmd"
    again = mirror_orbits(mesh)
    assert np.array_equal(again.column, orbits.column)
    assert all(np.array_equal(getattr(again.S, a), getattr(S, a))
               for a in ("indptr", "indices", "data"))


@pytest.mark.parametrize("L", range(1, 7))
def test_signed_orbits_are_the_centred_mirror_basis(L, monkeypatch):
    # S = C^-1 Q exactly, Q built from the orbit table; S's rows
    # hold +-1 at most 8 times, one per sector, and its CSR arrays come in
    # canonical order with no sort
    def no_sort(self):
        raise AssertionError("S's indices were sorted")

    monkeypatch.setattr(sp.csr_matrix, "sort_indices", no_sort)
    orbits = mirror_orbits(build_uniform_mesh(L))
    S = orbits.S
    monkeypatch.undo()
    uncentre = sp.kron(sp.identity(3 * L**3), np.linalg.inv(CENTRE))
    gap = (uncentre @ _q(orbits) - S).tocsr()
    gap.eliminate_zeros()
    assert gap.nnz == 0
    assert S.has_canonical_format
    assert np.all(np.abs(S.data) == 1)
    per_row = np.diff(S.indptr)
    assert per_row.max() <= 8
    assert (per_row.max() == 8) == (L > 1)
    rows = np.repeat(np.arange(S.shape[0]), per_row)
    within = rows[1:] == rows[:-1]
    assert np.all(np.diff(S.indices)[within] > 0)
    sector = orbits.sector[S.indices]
    assert np.all(sector[1:][within] > sector[:-1][within])


@pytest.mark.parametrize("L", [1, 2, 3, 5])
@pytest.mark.parametrize("factor", ["mirror", "coupled"])
def test_centred_view_solves_the_centred_system(L, factor):
    # the view shares the factors and solves x~ = C^-1 A^-1 C^-T b~; on
    # the mirror factor it applies no change of basis at all
    A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
    n = A.matrix.shape[0]
    fact = (linalg.factorize(A) if factor == "mirror" else
            linalg.Factorization(lu=spla.splu(A.matrix), n=n,
                                 nnz=A.matrix.nnz))
    view = linalg.centred(fact)
    assert view.lu is fact.lu
    assert (view.cell_basis is None) == (factor == "mirror")
    C = sp.kron(sp.identity(n // 4), CENTRE).tocsc()
    rng = np.random.default_rng(L)
    b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    ref = spla.spsolve(C, spla.splu(A.matrix).solve(spla.spsolve(C.T, b)))
    x = linalg.solve(view, b)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.array_equal(x[:, 1], linalg.solve(view, b[:, 1]))


def test_per_cell_is_the_block_diagonal_product():
    # (I (x) T) x for C, C^T and C^-1, real and complex, one column or a
    # block; a block's columns are bitwise the single columns
    n = 12 * 8
    rng = np.random.default_rng(9)
    X = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    for T in (CENTRE, CENTRE.T, np.linalg.inv(CENTRE)):
        full = sp.kron(sp.identity(n // 4), T)
        for x in (X, X.real.copy(), X[:, 2], np.asfortranarray(X)):
            out = linalg.per_cell(T, x)
            assert out.shape == x.shape and out.dtype == x.dtype
            assert np.abs(out - full @ x).max() <= 1e-15 * np.abs(x).max()
        block = linalg.per_cell(T, X)
        for col in range(X.shape[1]):
            assert np.array_equal(block[:, col], linalg.per_cell(T, X[:, col]))


@pytest.mark.parametrize("L", [5, 6, 8])
def test_symmetric_factor_stores_less_than_partial_pivoting(L):
    # SuperLU.nnz of both parts, symmetric factor against partial pivoting
    # on the same half-blocks, by minimum degree and in their own (NATURAL)
    # order: 15 466 against 29 331 and 21 282 at L=5, 41 840 against 66 924
    # and 59 149 at L=6, 169 822 against 309 564 and 255 017 at L=8
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    fact = linalg.factorize(A)
    blocks = linalg.half_blocks(A.matrix, mirror_orbits(mesh))[0]
    for permc in ("MMD_AT_PLUS_A", "NATURAL"):
        assert fact.lu.nnz < sum(spla.splu(block, permc_spec=permc).nnz
                                 for block in blocks)
    assert fact.stats == {"ordering": "mmd", "nnz_A": A.matrix.nnz,
                          "nnz_LU": fact.lu.nnz}


@pytest.mark.parametrize("L", [5, 8])
def test_nested_dissection_backward_error(L):
    # named for the nested-dissection order the mirror factor once used; it
    # bounds the residual of the symmetric factor
    A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
    rng = np.random.default_rng(L)
    n = A.matrix.shape[0]
    b = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
    x = linalg.solve(linalg.factorize(A), b)
    assert np.linalg.norm(A.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factorization_is_frozen():
    fact = linalg.factorize(assemble_a_h(build_uniform_mesh(2), 2.0, 1.0,
                                         10.0, 0.1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        fact.cell_basis = None


@pytest.mark.parametrize("L", [2, 3])
def test_mirror_basis_columns_have_their_parity(L):
    # bit a of a column's sector is set when its field E is odd under the
    # mirror R_a: x_a -> 1 - x_a, i.e. R_a E(R_a x) = -E(x)
    mesh = build_uniform_mesh(L)
    orbits = mirror_orbits(mesh)
    Q, sector = _q(orbits), orbits.sector
    rng = np.random.default_rng(0)
    for j in range(Q.shape[1]):
        field = DGField(mesh, Q[:, j].toarray().ravel())
        cell = int(rng.integers(mesh.n_cells))
        x = mesh.cell_lower(cell) + mesh.h * rng.uniform(0.1, 0.9, 3)
        ijk = np.array(np.unravel_index(cell, (L, L, L)))
        for a in range(3):
            m_ijk = ijk.copy()
            m_ijk[a] = L - 1 - ijk[a]
            y = x.copy()
            y[a] = 1.0 - x[a]
            image = eval_field(field, int(np.ravel_multi_index(m_ijk, (L,) * 3)), y)
            image[a] = -image[a]
            parity = -1.0 if sector[j] >> a & 1 else 1.0
            assert np.allclose(image, parity * eval_field(field, cell, x),
                               atol=1e-13)


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("k, lam, gamma0, gamma1",
                         [(2.0, 1.0, 10.0, 0.1), (5.0, 0.3, 1.0, 2.0)])
def test_a_h_does_not_couple_mirror_sectors(L, k, lam, gamma0, gamma1):
    mesh = build_uniform_mesh(L)
    orbits = mirror_orbits(mesh)
    Q, sector = _q(orbits), orbits.sector
    B = (Q.T @ assemble_a_h(mesh, k, lam, gamma0, gamma1).matrix @ Q).tocoo()
    cross = sector[B.row] != sector[B.col]
    assert np.abs(B.data[cross]).max() <= 1e-14 * np.abs(B.data).max()


def _swap_of(sector):
    """The axes the swap of a sector exchanges: y, z if the sector's y and
    z bits agree, else x, z, else x, y."""
    bit = [sector >> a & 1 for a in range(3)]
    if bit[1] == bit[2]:
        return 1, 2
    return (0, 2) if bit[0] == bit[2] else (0, 1)


@pytest.mark.parametrize("L", range(1, 8))
def test_pairing_is_each_sectors_axis_swap(L):
    mesh = build_uniform_mesh(L)
    orbits = mirror_orbits(mesh)
    n, pair, sector = 12 * L**3, orbits.pair, orbits.sector
    assert np.array_equal(pair[pair], np.arange(n))
    assert np.array_equal(sector[pair], sector)
    ijk = np.stack(np.unravel_index(np.arange(mesh.n_cells), (L,) * 3))
    for s in range(8):
        # the swap on the dofs: cell (i_0, i_1, i_2), component c and
        # monomial t_m go to the cell with i_a, i_b exchanged, component
        # swap(c) and monomial t_swap(m), on centred monomials as on
        # monomials; it maps column j of S to pair[j]
        a, b = _swap_of(s)
        axes = np.arange(3)
        axes[[a, b]] = b, a
        cell = np.ravel_multi_index(ijk[axes], (L,) * 3)
        loc = 4 * axes[:, None] + np.concatenate([[0], axes + 1])
        dof = (12 * cell[:, None] + loc.ravel()).ravel()
        cols = np.flatnonzero(sector == s)
        moved = orbits.S[dof][:, cols] - orbits.S[:, pair[cols]]
        assert moved.count_nonzero() == 0
    # U is orthogonal, and its 16 halves hold every column once, by sector
    # in chunk order, each half in the order of its lead columns
    blocks, U = linalg.half_blocks(
        assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).matrix, orbits)
    assert abs(U.T @ U - sp.identity(n)).max() <= 1e-15
    half = _halves_of(orbits, U)
    assert np.bincount(half, minlength=16).sum() == n
    Uc = U.tocsc()
    lead = Uc.indices[Uc.indptr[:-1]]
    assert np.array_equal(lead, np.minimum(lead, pair[lead]))
    rank = 2 * np.argsort(CHUNK_ORDER)[half // 2] + half % 2
    assert np.all(np.diff(rank) >= 0)
    assert np.all(np.diff(lead)[np.diff(rank) == 0] > 0)
    D = sp.block_diag(blocks).tocoo()
    assert np.array_equal(half[D.row], half[D.col])


@pytest.mark.parametrize("L", range(1, 7))
def test_cycled_sectors_are_numbered_as_images(L):
    # sector 1 -> 2 -> 4 and 3 -> 6 -> 5 under the axis cycle: the column
    # at the images of (cell, loc) has the in-sector index of (cell, loc)
    mesh = build_uniform_mesh(L)
    orbits = mirror_orbits(mesh)
    base = np.searchsorted(orbits.sector, np.arange(8))
    cells, locs = np.meshgrid(np.arange(mesh.n_cells), np.arange(12),
                              indexing="ij")
    for s, images in ((1, (2, 4)), (3, (6, 5))):
        has = orbits.sign[:, s] != 0
        for k, image in enumerate(images, start=1):
            cell, loc = _cycle(L, cells, locs, k)
            assert np.array_equal(orbits.sign[cell, image, loc],
                                  orbits.sign[:, s])
            assert np.array_equal(
                orbits.column[cell, image, loc][has] - base[image],
                orbits.column[:, s][has] - base[s])
    # the cycle permutes the columns (the column at (cell, sector, loc)
    # goes to the one at their images), and carries each cycled sector's
    # swap to its image's: pair commutes with it off sectors 0 and 7
    cell, sector, loc = np.nonzero(orbits.sign != 0)
    image_cell, image_loc = _cycle(L, cell, loc, 1)
    image = np.empty(12 * L**3, dtype=np.intp)
    image[orbits.column[cell, sector, loc]] = orbits.column[
        image_cell, (sector << 1 | sector >> 2) & 7, image_loc]
    assert np.array_equal(np.sort(image), np.arange(12 * L**3))
    cycled = ~np.isin(orbits.sector, [0, 7])
    assert np.array_equal(orbits.pair[image][cycled],
                          image[orbits.pair][cycled])
    # so U's chunks 2 and 3 are chunk 1's images, row for row
    blocks, U = linalg.half_blocks(
        assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).matrix, orbits)
    n = 12 * L**3
    P = sp.csr_matrix((np.ones(n), (image, np.arange(n))), shape=(n, n))
    one, two, three = (start for start, _ in _by_chunk(blocks)[1:])
    assert abs(P @ U[:, one:two] - U[:, two:three]).max() == 0
    assert abs(P @ P @ U[:, one:two] - U[:, three:]).max() == 0


@pytest.mark.parametrize("L", [1, 2, 3])
def test_factorize_refuses_a_matrix_that_breaks_the_cycle(L):
    # 1e-9 max|A| times the identity on sector 2's columns of Q = C S, mapped
    # back to A: it commutes with the mirrors and with sector 2's swap,
    # within each sector, but the cycle carries it to sector 4, where A
    # has none of it
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    orbits = mirror_orbits(mesh)
    Q_inv = np.linalg.inv(_q(orbits).toarray())
    E = Q_inv.T @ np.diag((orbits.sector == 2).astype(float)) @ Q_inv
    E[abs(E) <= 1e-14 * abs(E).max()] = 0
    bad = sp.csc_matrix(A.matrix + 1e-9 * abs(A.matrix.data).max()
                        / abs(E).max() * E)
    with pytest.raises(ValueError, match="not cycle-invariant"):
        linalg.factorize(dataclasses.replace(A, matrix=bad))


@pytest.mark.parametrize("L", [2, 4])
def test_half_blocks_refuse_a_table_rotated_the_wrong_way(L):
    # sectors 2, 6 and 4, 5 numbered as the images of 1 and 3 under the
    # inverse cycle: every sector's table is still a valid mirror basis
    # with its swap pairing (at even L every representative has every
    # column), but D_13 is no longer the block of chunks 2 and 3
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    orbits = mirror_orbits(mesh)
    n = 12 * L**3
    renumber = np.arange(n)
    reps = np.flatnonzero(orbits.rep == np.arange(mesh.n_cells))
    cells, locs = np.meshgrid(reps, np.arange(12), indexing="ij")
    for s, k in ((2, 1), (6, 1), (4, 2), (5, 2)):
        cell, loc = _cycle(L, cells, locs, 2 * k)
        renumber[orbits.column[cells, s, locs]] = orbits.column[cell, s, loc]
    assert np.array_equal(np.sort(renumber), np.arange(n))
    pair = np.empty(n, dtype=np.intp)
    pair[renumber] = renumber[orbits.pair]
    wrong = orbits._replace(S=orbits.S[:, np.argsort(renumber)].tocsr(),
                            column=renumber[orbits.column], pair=pair)
    linalg.half_blocks(A.matrix, orbits)
    with pytest.raises(ValueError, match="not cycle-invariant"):
        linalg.half_blocks(A.matrix, wrong)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k, lam, gamma0, gamma1",
                         [(2.0, 1.0, 10.0, 0.1), (5.0, 0.3, 1.0, 2.0)])
def test_a_h_does_not_couple_swap_halves(L, k, lam, gamma0, gamma1):
    # D_07 and D_13, folded from A's cell blocks with no n-by-n product,
    # are the half-diagonal of the product (QU)^T A QU: D_07 on chunk 0,
    # and D_13 on each of chunks 1, 2 and 3
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, k, lam, gamma0, gamma1)
    orbits = mirror_orbits(mesh)
    blocks, U = linalg.half_blocks(A.matrix, orbits)
    QU = _q(orbits) @ U
    half = _halves_of(orbits, U)
    B = (QU.T @ A.matrix @ QU).tocoo()
    cross = half[B.row] != half[B.col]
    assert np.abs(B.data[cross]).max() <= 1e-14 * np.abs(B.data).max()
    kept = sp.csc_matrix((B.data[~cross], (B.row[~cross], B.col[~cross])),
                         shape=B.shape)
    assert sum(D.shape[0] for _, D in _by_chunk(blocks)) == B.shape[0]
    for start, D in _by_chunk(blocks):
        stop = start + D.shape[0]
        assert (abs(D - kept[start:stop, start:stop]).max()
                <= 1e-14 * abs(kept).max())


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_half_blocks_refuse_a_matrix_that_breaks_a_swap(L):
    # 1e-9 max|A| on every cell's centred coupling of (component c,
    # monomial t_(c+1)) to (component c+1, monomial t_c), c = x, y, z,
    # commutes with the mirrors and with the axis cycle, not with any swap,
    # which maps each coupling onto its transpose: sectors 3, 6 and 5 must
    # refuse it
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).matrix
    chiral = np.zeros((12, 12))
    for c in range(3):
        chiral[4 * c + (c + 1) % 3 + 1, 4 * ((c + 1) % 3) + c + 1] = 1.0
    uncentre = np.linalg.inv(np.kron(np.eye(3), CENTRE))
    bad = sp.csc_matrix(A + 1e-9 * abs(A.data).max() * sp.kron(
        sp.identity(mesh.n_cells), uncentre.T @ chiral @ uncentre))
    orbits = mirror_orbits(mesh)
    linalg.half_blocks(bad, _unsplit(orbits))   # the mirrors and the cycle
    with pytest.raises(ValueError, match="not swap-invariant"):
        linalg.half_blocks(bad, orbits)
    with pytest.raises(ValueError, match="not swap-invariant"):
        linalg.factorize(SystemMatrix(bad, mirror_mesh=mesh))


@pytest.mark.parametrize("L", [2, 3])
def test_half_blocks_refuse_a_wrong_pairing_table(L):
    # two pairs of sector 0 exchange their images: the table is still an
    # involution of each sector, but no longer the swap
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    orbits = mirror_orbits(mesh)
    pair = orbits.pair.copy()
    a, b = np.flatnonzero((pair > np.arange(pair.size))
                          & (orbits.sector == 0))[:2]
    pair[[a, b, pair[a], pair[b]]] = pair[b], pair[a], b, a
    assert np.array_equal(pair[pair], np.arange(pair.size))
    with pytest.raises(ValueError, match="not swap-invariant"):
        linalg.half_blocks(A.matrix, orbits._replace(pair=pair))


def test_two_superlus_hold_the_eight_distinct_halves(monkeypatch):
    # at L=5 the 0/7 and 1/3 parts are each factored by the one rule;
    # each holds n/4 columns, from sectors of different sizes
    calls = _record_splu(monkeypatch)
    mesh = build_uniform_mesh(5)
    fact = linalg.factorize(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1))
    assert calls == [(fact.n // 4, THE_RULE)] * 2
    fixed, cycled = fact.lu.parts
    assert isinstance(fixed, spla.SuperLU) and isinstance(cycled, spla.SuperLU)
    sizes = np.bincount(mirror_orbits(mesh).sector, minlength=8)
    assert fixed.shape[0] == sizes[0] + sizes[7] == fact.n // 4
    assert cycled.shape[0] == sizes[1] + sizes[3] == fact.n // 4
    assert sizes[[0, 7, 1, 3]].tolist() == [207, 168, 193, 182]
    assert fact.lu.nnz == fixed.nnz + cycled.nnz
    assert fact.lu.L.nnz + fact.lu.U.nnz == sum(
        lu.L.nnz + lu.U.nnz for lu in fact.lu.parts)
    assert fact.stats["ordering"] == "mmd"


@pytest.mark.parametrize("L, kind", [(2, "mirror"), (5, "mirror"),
                                     (4, "A_h"), (4, "A(alpha)")])
def test_every_splu_call_gets_the_one_rule(L, kind, monkeypatch):
    # both parts of the mirror factor, A_h's coupled factor, and one
    # sample's A(alpha) as run_standard assembles and factors it
    calls = _record_splu(monkeypatch)
    if kind == "A(alpha)":
        run_standard(RunConfig(L=L, M=1, N=1, seed=2))
    else:
        A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
        linalg.factorize(A if kind == "mirror" else A.matrix)
    n = 12 * L**3
    assert calls == ([(n // 4, THE_RULE)] * 2 if kind == "mirror" else
                     [(n, THE_RULE)])


@pytest.mark.parametrize("L", range(3, 9))
def test_pivots_stay_on_the_diagonal(L):
    # at the default parameters every pivot of both mirror parts, and of
    # A_h's coupled factor at L=4, is its diagonal entry; full partial
    # pivoting moved 6% (L=8) to 30% (L=3) of them off it
    A = assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)
    parts = list(linalg.factorize(A).lu.parts)
    if L == 4:
        parts.append(linalg.factorize(A.matrix).lu)
    for lu in parts:
        assert np.array_equal(lu.perm_r, lu.perm_c)


@pytest.mark.parametrize("L", [3, 4])
def test_diagonal_pivots_keep_the_backward_error(L):
    # the normwise backward error |A x - b| / (|A|_F |x| + |b|) of one
    # solve, worst over a grid of k, lambda, gamma0, gamma1, stays below the
    # unit round-off: 1.1e-17 at L=3 and 8.7e-18 at L=4 (full partial
    # pivoting: 9.7e-18, 6.5e-18), and 2.7e-16, 2.1e-16 with no threshold
    # (DIAG_PIVOT_THRESH = 0), where gamma0 = 0.  |A x - b| / |b| alone is
    # set by the conditioning: its worst, 2.7e-12 and 4.1e-12 at k=0.5,
    # lambda=0.1, gamma0=100, reads the same under full partial pivoting
    mesh = build_uniform_mesh(L)
    rng = np.random.default_rng(L)
    b = rng.normal(size=12 * L**3) + 1j * rng.normal(size=12 * L**3)
    worst = 0.0
    for k, lam, gamma0, gamma1 in itertools.product(
            [0.5, 2.0, 8.0, 20.0], [0.1, 1.0, 10.0], [0.0, 1.0, 10.0, 100.0],
            [0.0, 0.1, 1.0]):
        A = assemble_a_h(mesh, k, lam, gamma0, gamma1)
        x = linalg.solve(linalg.factorize(A), b)
        worst = max(worst, np.linalg.norm(A.matrix @ x - b) / (
            spla.norm(A.matrix) * np.linalg.norm(x) + np.linalg.norm(b)))
    assert worst <= 1e-16


def _sector_diagonal_of_product(mesh, A):
    """The oracle: Q^T A Q by two sparse products, its cross-sector
    entries dropped."""
    orbits = mirror_orbits(mesh)
    Q, sector = _q(orbits), orbits.sector
    B = (Q.T @ A.matrix @ Q).tocoo()
    same = sector[B.row] == sector[B.col]
    return sp.csc_matrix((B.data[same], (B.row[same], B.col[same])),
                         shape=B.shape)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k, lam, gamma0, gamma1",
                         [(2.0, 1.0, 10.0, 0.1), (5.0, 0.3, 1.0, 2.0)])
def test_sector_blocks_are_the_diagonal_blocks_of_the_product(
        L, k, lam, gamma0, gamma1):
    # the unsplit sector blocks, which the tests take as a reference: in
    # chunk order, the product's sector blocks are D_07's and D_13's, and
    # those of 2, 6 and 4, 5 are D_13's too
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, k, lam, gamma0, gamma1)
    oracle = _sector_diagonal_of_product(mesh, A)
    blocks, U = linalg.half_blocks(A.matrix, _unsplit(mirror_orbits(mesh)))
    ordered = (U.T @ oracle @ U).tocsc()
    for start, D in _by_chunk(blocks):
        stop = start + D.shape[0]
        assert (abs(D - ordered[start:stop, start:stop]).max()
                <= 1e-14 * abs(oracle).max())


@pytest.mark.parametrize("L", [4, 6])
def test_sector_blocks_fill_no_more_than_the_product(L):
    # against the product's blocks of the distinct sectors 0, 7, 1 and 3
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    fact = linalg.factorize(A)
    distinct = np.isin(mirror_orbits(mesh).sector, [0, 7, 1, 3])
    oracle = _sector_diagonal_of_product(mesh, A)
    ref = spla.splu(oracle[distinct][:, distinct], permc_spec="MMD_AT_PLUS_A")
    assert (fact.lu.L.nnz + fact.lu.U.nnz
            <= 1.02 * (ref.L.nnz + ref.U.nnz))


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_mirror_factor_refuses_each_asymmetric_mirror(L, axis):
    # alpha is symmetric under the other two mirrors, not under `axis`
    mesh = build_uniform_mesh(L)
    g = np.random.default_rng(axis).uniform(size=(L, L, L))
    for other in {0, 1, 2} - {axis}:
        g = g + np.flip(g, other)
    assert not np.allclose(g, np.flip(g, axis))
    A = assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, 1.0 + 0.05 * g.ravel())
    with pytest.raises(ValueError, match="not mirror-invariant"):
        linalg.factorize(dataclasses.replace(A, mirror_mesh=mesh))


PARAMETER_SETS = [(2.0, 1.0, 10.0, 0.1), (7.5, 0.3, 100.0, 3.0),
                  (0.5, 5.0, 0.0, 0.0)]


@pytest.mark.parametrize("L", range(1, 9))
@pytest.mark.parametrize("k, lam, gamma0, gamma1", PARAMETER_SETS)
def test_sector_blocks_accept_round_off(L, k, lam, gamma0, gamma1,
                                        monkeypatch):
    # with every column its own image, the probe of (QU)^T A QU V = D V
    # reads at most 4.5e-15 of max|A| max|V| on A_h up to L=12: accepted
    # with 20x to spare
    monkeypatch.setattr(linalg, "MIRROR_TOL", linalg.MIRROR_TOL / 20)
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, k, lam, gamma0, gamma1)
    linalg.half_blocks(A.matrix, _unsplit(mirror_orbits(mesh)))


@pytest.mark.parametrize("L", range(1, 9))
def test_half_blocks_accept_round_off(L, monkeypatch):
    # the probe of (QU)^T A QU V = D V reads at most 5.6e-15 of max|A|
    # max|V| on A_h up to L=8 (3.8e-15, 5.4e-15 and 4.2e-15 at L = 10, 12
    # and 16, first set)
    monkeypatch.setattr(linalg, "MIRROR_TOL", linalg.MIRROR_TOL / 20)
    mesh = build_uniform_mesh(L)
    for params in PARAMETER_SETS:
        linalg.half_blocks(assemble_a_h(mesh, *params).matrix,
                           mirror_orbits(mesh))


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_sector_blocks_refuse_one_moved_entry(L):
    # Moving one entry of A by 1e-11 of the largest breaks the symmetry
    # unless the mirrors, the swaps and the axis cycle fix it, that is
    # unless (QU)^T E QU keeps the single-entry E within one half of
    # sector 0 or 7; at L=1 that holds for 1 of the 54 entries.  The probe
    # reads at least 1.4e-12 on the others (these 60 per L, L <= 4).
    mesh = build_uniform_mesh(L)
    A = sp.csc_matrix(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).matrix)
    orbits = mirror_orbits(mesh)
    U = linalg.half_blocks(A, orbits)[1]
    QU, half = (_q(orbits) @ U).tocsr(), _halves_of(orbits, U)
    rows = A.indices
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    moved = 0
    for at in np.random.default_rng(L).choice(A.nnz, min(A.nnz, 60),
                                              replace=False):
        halves = np.union1d(half[QU[rows[at]].indices],
                            half[QU[cols[at]].indices])
        bad = A.copy()
        bad.data[at] += 1e-11 * abs(A.data).max()
        if len(halves) == 1 and halves[0] // 2 in (0, 7):
            linalg.half_blocks(bad, orbits)
            continue
        moved += 1
        with pytest.raises(ValueError, match="not mirror-invariant"):
            linalg.half_blocks(bad, orbits)
    assert moved


@pytest.mark.parametrize("field", ["sign", "size", "column"])
def test_sector_blocks_refuse_a_wrong_orbit_table(field):
    # a check that compared A with its mirror images and never looked at
    # the fold accepted the sign and size tables, whose solves then had
    # backward errors of 0.17 (sign) and 0.036 (size)
    mesh = build_uniform_mesh(4)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    orbits = mirror_orbits(mesh)
    wrong = getattr(orbits, field).copy()
    at = np.argwhere(orbits.sign[1] != 0)    # cell 1 is a representative
    if field == "sign":
        wrong[(1, *at[0])] *= -1
    elif field == "size":
        wrong[0] += 1
    else:                            # two of its columns in sector 0
        loc = at[at[:, 0] == 0, 1][:2]
        wrong[1, 0, loc] = wrong[1, 0, loc[::-1]]
    with pytest.raises(ValueError, match="not mirror-invariant"):
        linalg.half_blocks(A.matrix, orbits._replace(**{field: wrong}))


def test_sector_blocks_peak_memory():
    # folding the distinct half-blocks from the representative rows alone
    # peaks at 2.7x A's entries at L=6 (3.1x with every column its own
    # image; 3.3x for all 16 halves); centring every cell block and
    # comparing it with its mirror images took 8.6x
    import tracemalloc

    mesh = build_uniform_mesh(6)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    orbits = mirror_orbits(mesh)
    tracemalloc.start()
    try:
        linalg.half_blocks(A.matrix, orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * A.matrix.data.nbytes


@pytest.mark.parametrize("L", [4, 8])
def test_mirror_solve_peak_memory(L):
    # a 16-column centred solve writes D^-1 into U^T S^T b in place: its
    # traced peak is 3.0 blocks of 16 n B bytes, and a second block for
    # D^-1's result would make it 3.5
    import tracemalloc

    view = linalg.centred(linalg.factorize(
        assemble_a_h(build_uniform_mesh(L), 2.0, 1.0, 10.0, 0.1)))
    rng = np.random.default_rng(L)
    b = rng.normal(size=(view.n, 16)) + 1j * rng.normal(size=(view.n, 16))
    tracemalloc.start()
    try:
        linalg.solve(view, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * b.nbytes


def test_factorize_refuses_a_mirror_mesh_of_another_size():
    A = assemble_a_h(build_uniform_mesh(4), 2.0, 1.0, 10.0, 0.1)
    with pytest.raises(ValueError, match="324 dofs, the matrix 768"):
        linalg.factorize(SystemMatrix(A.matrix,
                                      mirror_mesh=build_uniform_mesh(3)))


@pytest.mark.parametrize("layout", ["1-D", "C", "Fortran", "strided",
                                    "real"])
def test_mirror_solve_is_q_lu_qt_bitwise(layout):
    # the solve is Q U D^-1 U^T Q^T b with Q = C S: S and U each applied
    # as a real matrix to the float64 view of its operand, C per cell, and
    # D^-1 as D_07's factor on chunk 0 and D_13's on chunks 1, 2, 3 in one
    # stacked call; that must give the same bits as the complex products
    # and a call per chunk, whatever b's layout
    fact = linalg.factorize(assemble_a_h(build_uniform_mesh(4), 2.0, 1.0,
                                         10.0, 0.1))
    (S, St), (U, Ut) = fact.lu.basis, fact.lu.halves
    assert S.dtype == St.dtype == U.dtype == Ut.dtype == np.float64
    assert fact.cell_basis is CENTRE
    C = sp.kron(sp.identity(fact.n // 4), CENTRE).astype(complex)
    rng = np.random.default_rng(8)
    full = (rng.normal(size=(fact.n, 6))
            + 1j * rng.normal(size=(fact.n, 6)))
    b = {"1-D": full[:, 2].copy(), "C": full,
         "Fortran": np.asfortranarray(full), "strided": full[:, ::2],
         "real": full.real.copy()}[layout]
    x = linalg.solve(fact, b)
    y = U.T.astype(complex) @ (S.T.astype(complex) @ (C.T @ b))
    fixed, cycled = fact.lu.parts
    y = np.concatenate([(fixed if start == 0 else cycled).solve(
        y[start:start + D.shape[0]]) for start, D in _by_chunk(
        (fixed, cycled))])
    ref = C @ (S.astype(complex) @ (U.astype(complex) @ y))
    assert x.shape == b.shape
    assert np.array_equal(x, ref)


def test_one_blas_thread_nests_and_restores():
    pools = linalg.openblas_pools()
    if pools is None:
        pytest.skip("no OpenBLAS with a known thread setter is mapped")
    before = [get() for _, get in pools]
    with linalg.one_blas_thread() as outer:
        with linalg.one_blas_thread() as inner:
            assert [get() for _, get in pools] == [1] * len(pools)
        assert [get() for _, get in pools] == [1] * len(pools)
    assert outer == inner == 1
    assert [get() for _, get in pools] == before
    # the maps are read once per process
    assert linalg.openblas_pools() is pools
    assert linalg.openblas_pools.cache_info().misses == 1


def test_one_blas_thread_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "openblas_pools", lambda: None)
    with linalg.one_blas_thread() as threads:
        assert threads == "unmanaged"


def test_openblas_pools_without_a_library_to_open(monkeypatch):
    # a library replaced on disk while mapped cannot be opened again
    import io

    line = ("7f0000000000-7f0000001000 r-xp 00000000 08:01 42 "
            "/usr/lib/libscipy_openblas-abc.so (deleted)\n")
    monkeypatch.setattr(linalg, "open", lambda *args: io.StringIO(line),
                        raising=False)
    assert linalg.openblas_pools.__wrapped__() is None


def test_one_blas_thread_costs_microseconds():
    import timeit

    linalg.openblas_pools()
    best = min(timeit.repeat("with one_blas_thread(): pass", number=200,
                             repeat=5, globals=vars(linalg)))
    assert best / 200 < 1e-4


def test_one_blas_thread_under_contention():
    # more threads than cores enter and leave at once, switching often: a
    # lost update of the block count would restore the threads too early
    # (a block reads the caller's count) or never
    import sys
    import threading

    pools = linalg.openblas_pools()
    if pools is None:
        pytest.skip("no OpenBLAS with a known thread setter is mapped")
    saved = [get() for _, get in pools]
    for set_threads, _ in pools:
        set_threads(2)
    wrong = []

    def enter_and_leave():
        for _ in range(200):
            with linalg.one_blas_thread():
                counts = [get() for _, get in pools]
                if counts != [1] * len(pools):
                    wrong.append(counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
        after = [get() for _, get in pools]
        for (set_threads, _), n in zip(pools, saved):
            set_threads(n)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert after == [2] * len(pools)
