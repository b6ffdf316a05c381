"""Generators: pair-exchange elements, dressed terms, and block compressions."""

import math

import numpy as np
import pytest

from trimodal.basis import (
    ALL_PERMUTATIONS,
    BasisState,
    StateVector,
    enumerate_manifold,
    parse_level,
    permutation_matrix,
)
from trimodal.dressed import DressedParams
from trimodal.dynamics import (
    Block,
    Generator,
    build_full_generator,
    build_large_xi_generator,
    hopping_element,
    permutation_symmetric_block,
    project_onto,
    sector_block,
    symmetry_blocks,
)

MAN2 = enumerate_manifold(2)
MAN4 = enumerate_manifold(4)
MAN6 = enumerate_manifold(6)


def state(*levels):
    return BasisState(tuple(parse_level(t) for t in levels))


# ------------------------------------------------------------- matrix elements

def test_pair_exchange_element_single_pair():
    # a pair leaving 2 photons and landing on 0: sqrt(2*1)*sqrt(1*2) = 2
    assert hopping_element(state("g0", "g2", "g0"), state("g2", "g0", "g0")) == \
        pytest.approx(2.0)


def test_pair_exchange_element_larger_stack():
    # leaving 4 photons, landing on 0: sqrt(4*3)*sqrt(1*2) = sqrt(24)
    assert hopping_element(state("g2", "g2", "g0"), state("g4", "g0", "g0")) == \
        pytest.approx(math.sqrt(24.0))
    # leaving 6, landing on 0: sqrt(6*5)*sqrt(2) = sqrt(60)
    assert hopping_element(state("g4", "g2", "g0"), state("g6", "g0", "g0")) == \
        pytest.approx(math.sqrt(60.0))


def test_pair_exchange_element_scales_with_xi():
    a, b = state("g0", "g2", "g0"), state("g2", "g0", "g0")
    assert hopping_element(a, b, xi=50.0) == pytest.approx(100.0)


def test_pair_exchange_element_vanishing_cases():
    # same state: nothing moved
    assert hopping_element(state("g2", "g0", "g0"), state("g2", "g0", "g0")) == 0.0
    # atomic flag flips are not exchange moves
    assert hopping_element(state("g0", "g0", "e0"), state("g0", "g0", "g2")) == 0.0
    # different totals never couple
    assert hopping_element(state("g2", "g0", "g0"), state("g2", "g2", "g0")) == 0.0
    # two pairs moved at once
    assert hopping_element(state("g0", "g2", "g2"), state("g4", "g0", "g0")) == 0.0


def test_pair_exchange_is_symmetric():
    for i, bra in enumerate(MAN4.basis):
        for ket in MAN4.basis[i:]:
            assert hopping_element(bra, ket) == pytest.approx(
                hopping_element(ket, bra))


# ------------------------------------------------------------------ generators

def test_large_hopping_generator_total_two():
    gen = build_large_xi_generator(MAN2, xi=1.0)
    expect = np.zeros((6, 6))
    expect[:3, :3] = 2.0 * (np.ones((3, 3)) - np.eye(3))
    assert np.allclose(gen.matrix, expect)
    assert gen.mode == "large_hopping"
    assert sorted(np.round(np.linalg.eigvalsh(gen.matrix), 9)) == \
        pytest.approx([-2.0, -2.0, 0.0, 0.0, 0.0, 4.0])


def test_full_generator_total_two_reference_entries():
    gen = build_full_generator(MAN2, DressedParams(r=1.0), xi=1.0)
    mat = gen.matrix.real
    t0 = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.diag(mat)[:3], 1.0)
    assert mat[0, 1] == pytest.approx(2.0)
    assert np.allclose(np.diag(mat)[3:], t0 * t0)
    # sideband pairs each photon state with the excited state of the same cavity
    for k in range(3):
        assert mat[k, k + 3] == pytest.approx(t0)
    assert np.allclose(mat, mat.T)


def test_full_generator_sideband_weakens_with_r():
    strong = build_full_generator(MAN2, DressedParams(r=4.0)).matrix.real
    assert strong[0, 3] == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)))


def test_generator_validation():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        Generator(manifold=MAN2, matrix=bad, mode="full", xi=1.0)
    with pytest.raises(ValueError):
        Generator(manifold=MAN2, matrix=np.zeros((5, 5)), mode="full", xi=1.0)
    with pytest.raises(ValueError):
        Generator(manifold=MAN2, matrix=np.full((6, 6), np.nan), mode="full", xi=1.0)
    gen = build_large_xi_generator(MAN2)
    with pytest.raises(ValueError):
        gen.matrix[0, 0] = 5.0


def _all_pairs_hopping(manifold, xi):
    """The element formula on every pair of states, lower index as bra."""
    mat = np.zeros((manifold.dim, manifold.dim))
    for i, bra in enumerate(manifold.basis):
        for j in range(i + 1, manifold.dim):
            mat[i, j] = mat[j, i] = hopping_element(bra, manifold.basis[j], xi)
    return mat


@pytest.mark.parametrize("n_total", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("xi", [1.0, 0.37, 50.0, 2.0 / 3.0, 1e-3])
def test_builders_equal_the_all_pairs_element_loop(n_total, xi):
    man = enumerate_manifold(n_total)
    ref = _all_pairs_hopping(man, xi)
    assert np.array_equal(build_large_xi_generator(man, xi).matrix, ref)
    params = DressedParams(r=1.3, delta=0.4)
    dressed = build_full_generator(man, params, xi=0.0).matrix
    # the dressed terms only flip atoms, so no entry holds both kinds
    assert not np.any((ref != 0) & (dressed != 0))
    assert np.array_equal(build_full_generator(man, params, xi).matrix, ref + dressed)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_builders_reject_non_finite_xi(xi):
    with pytest.raises(ValueError, match="finite"):
        build_large_xi_generator(MAN2, xi)
    with pytest.raises(ValueError, match="finite"):
        build_full_generator(MAN2, DressedParams(r=1.0), xi)


# ------------------------------------------------------------------- blocks

def test_project_onto_requires_orthonormal_states():
    gen = build_large_xi_generator(MAN2)
    v0 = StateVector(MAN2, np.eye(6)[0])
    with pytest.raises(ValueError):
        project_onto(gen, [v0, v0])


def test_project_onto_gram_check_fails_closed_on_nan():
    emb = np.eye(6)[:, :2].astype(complex)
    emb[0, 0] = math.nan
    with pytest.raises(ValueError, match="orthonormal"):
        project_onto(build_large_xi_generator(MAN2), emb)


def test_project_onto_exchange_symmetric_corner():
    gen = build_large_xi_generator(MAN2)
    e = np.eye(6)
    sym = (e[1] + e[2]) / math.sqrt(2.0)
    block = project_onto(gen, [StateVector(MAN2, e[0]), StateVector(MAN2, sym)])
    rt8 = math.sqrt(8.0)
    assert np.allclose(block.matrix.real, [[0.0, rt8], [rt8, 2.0]])
    assert np.linalg.eigvalsh(block.matrix) == pytest.approx([-2.0, 4.0])
    assert block.embedding.shape == (6, 2)


def test_sector_block_invariance_in_large_hopping_mode():
    gen = build_large_xi_generator(MAN6)
    for k, idx in enumerate(MAN6.sectors):
        if not idx:
            continue
        block = sector_block(gen, k)
        assert block.dim == len(idx)
        # invariant: the generator never leaks out of the sector columns
        leak = np.delete(gen.matrix[:, list(idx)], list(idx), axis=0)
        assert np.max(np.abs(leak)) == 0.0
    with pytest.raises(ValueError):
        sector_block(build_large_xi_generator(MAN4), 3)


def test_symmetry_blocks_split_dimensions_and_spectrum():
    gen = build_large_xi_generator(MAN2)
    sym, asym = symmetry_blocks(gen, (2, 3))
    assert (sym.label, asym.label) == ("sym23", "asym23")
    assert (sym.dim, asym.dim) == (4, 2)
    merged = np.concatenate([
        np.linalg.eigvalsh(sym.matrix), np.linalg.eigvalsh(asym.matrix)])
    assert np.sort(merged) == pytest.approx(np.linalg.eigvalsh(gen.matrix))


def test_symmetry_blocks_reject_bad_exchange():
    gen = build_large_xi_generator(MAN2)
    with pytest.raises(ValueError):
        symmetry_blocks(gen, (1, 1))


def test_symmetry_blocks_commute_check_fails_closed_on_nan():
    mat = np.array(build_large_xi_generator(MAN2).matrix)
    mat[0, 1] = math.nan
    block = Block(matrix=mat, embedding=np.eye(6, dtype=complex), manifold=MAN2)
    with pytest.raises(ValueError, match="commute"):
        symmetry_blocks(block, (2, 3))


def test_permutation_symmetric_block_containment_fails_closed_on_nan():
    gen = build_large_xi_generator(MAN2)
    parent = np.eye(6, dtype=complex)
    parent[0, 0] = math.nan
    with pytest.raises(ValueError, match="contained"):
        permutation_symmetric_block(Block(matrix=gen.matrix, embedding=parent,
                                          manifold=MAN2))


def test_permutation_symmetric_block_reproduces_symmetric_dynamics():
    gen = build_large_xi_generator(MAN2)
    block = permutation_symmetric_block(gen)
    # orbit sums: one photon orbit, one excited orbit
    assert block.dim == 2
    assert np.linalg.eigvalsh(block.matrix) == pytest.approx([0.0, 4.0])
    gram = block.embedding.conj().T @ block.embedding
    assert np.allclose(gram, np.eye(block.dim))


# One compression route: every builder must give the blocks of the dedicated
# builders it replaced, entry for entry.  The reference copies below are those
# builders: each compresses with its own emb^H M emb and embeds through an
# explicit parent (the identity for a Generator).

def _reference_sector(generator, k):
    man = generator.manifold
    idx = man.sectors[k]
    emb = np.zeros((man.dim, len(idx)), dtype=complex)
    for col, i in enumerate(idx):
        emb[i, col] = 1.0
    return emb.conj().T @ generator.matrix @ emb, emb


def _reference_parent(generator):
    if isinstance(generator, Generator):
        return np.eye(generator.manifold.dim, dtype=complex)
    return generator.embedding


def _reference_exchange(generator, exchange):
    manifold, mat = generator.manifold, generator.matrix
    parent = _reference_parent(generator)
    i, j = exchange
    perm = [1, 2, 3]
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    swap = parent.conj().T @ permutation_matrix(manifold, tuple(perm)) @ parent
    n = parent.shape[1]
    rt = 1.0 / math.sqrt(2.0)
    sym_cols, asym_cols, seen = [], [], set()
    for c in range(n):
        if c in seen:
            continue
        targets = np.nonzero(np.abs(swap[:, c]) > 1e-12)[0]
        if len(targets) == 1 and targets[0] == c:
            e = np.zeros(n, dtype=complex)
            e[c] = 1.0
            sym_cols.append(e)
            seen.add(c)
        else:
            (d,) = [t for t in targets if t != c]
            e_plus = np.zeros(n, dtype=complex)
            e_plus[c], e_plus[d] = rt, rt
            e_minus = np.zeros(n, dtype=complex)
            e_minus[c], e_minus[d] = rt, -rt
            sym_cols.append(e_plus)
            asym_cols.append(e_minus)
            seen.update((c, int(d)))

    def make(cols):
        if not cols:
            return (np.zeros((0, 0), dtype=complex),
                    np.zeros((parent.shape[0], 0), dtype=complex))
        b = np.column_stack(cols)
        return b.conj().T @ mat @ b, parent @ b

    return make(sym_cols), make(asym_cols)


def _reference_fully_symmetric(generator):
    manifold = generator.manifold
    parent = _reference_parent(generator)
    sym_states, seen = [], set()
    for b in manifold.basis:
        if b in seen:
            continue
        orbit = {b.permuted(p) for p in ALL_PERMUTATIONS}
        seen.update(orbit)
        vec = np.zeros(manifold.dim, dtype=complex)
        for s in orbit:
            vec[manifold.index_of(s)] = 1.0
        sym_states.append(vec / np.linalg.norm(vec))
    coords = parent.conj().T @ np.column_stack(sym_states)
    coords = coords[:, ~(np.linalg.norm(coords, axis=0) <= 1e-12)]
    return coords.conj().T @ generator.matrix @ coords, parent @ coords


def _same_block(block, reference):
    mat, emb = reference
    assert block.matrix.shape == mat.shape and block.embedding.shape == emb.shape
    assert np.array_equal(block.matrix, mat)
    assert np.array_equal(block.embedding, emb)


def _generators(n_total):
    man = enumerate_manifold(n_total)
    gens = [build_large_xi_generator(man, xi=0.37)]
    if n_total:
        gens.append(build_full_generator(man, DressedParams(r=0.7, delta=0.3), xi=1.3))
    return gens


@pytest.mark.parametrize("n_total", [0, 2, 4, 6, 8])
def test_block_builders_equal_the_dedicated_compressions(n_total):
    for gen in _generators(n_total):
        assert sector_block(gen, 0).manifold is gen.manifold
        sectors = [k for k, idx in enumerate(gen.manifold.sectors) if idx]
        for k in sectors:
            _same_block(sector_block(gen, k), _reference_sector(gen, k))
        _same_block(permutation_symmetric_block(gen), _reference_fully_symmetric(gen))
        for exchange in ((1, 2), (1, 3), (2, 3)):
            for block, ref in zip(symmetry_blocks(gen, exchange),
                                  _reference_exchange(gen, exchange)):
                _same_block(block, ref)
        if gen.mode != "large_hopping":
            continue
        # Block inputs: the (invariant) sectors and the 2<->3 symmetric block
        parents = [sector_block(gen, k) for k in sectors]
        parents.append(symmetry_blocks(gen, (2, 3))[0])
        for parent in parents:
            _same_block(permutation_symmetric_block(parent),
                        _reference_fully_symmetric(parent))
        for parent in parents[:-1]:
            for exchange in ((1, 2), (1, 3), (2, 3)):
                for block, ref in zip(symmetry_blocks(parent, exchange),
                                      _reference_exchange(parent, exchange)):
                    _same_block(block, ref)
