"""Generators: pair-exchange elements, dressed terms, and block compressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimodal.basis import (
    ALL_PERMUTATIONS,
    BasisState,
    CavityLevel,
    Excitation,
    enumerate_manifold,
    parse_level,
)
from trimodal.dressed import DressedParams, energy_scale, mixing_angle, splitting
from trimodal.dynamics import (
    Generator,
    build_full_generator,
    build_large_xi_generator,
    permutation_symmetric_block,
    project_onto,
    sector_block,
    symmetry_blocks,
)

from references import hopping_element, permuted

MAN2 = enumerate_manifold(2)
MAN4 = enumerate_manifold(4)
MAN6 = enumerate_manifold(6)
EVEN_TOTALS = (0, 2, 4, 6, 8)


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
    assert sorted(np.round(np.linalg.eigvalsh(gen.matrix), 9)) == \
        pytest.approx([-2.0, -2.0, 0.0, 0.0, 0.0, 4.0])


def test_full_generator_total_two_reference_entries():
    gen = build_full_generator(MAN2, DressedParams(r=1.0), xi=1.0)
    mat = gen.matrix
    t0 = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.diag(mat)[:3], 1.0)
    assert mat[0, 1] == pytest.approx(2.0)
    assert np.allclose(np.diag(mat)[3:], t0 * t0)
    # sideband pairs each photon state with the excited state of the same cavity
    for k in range(3):
        assert mat[k, k + 3] == pytest.approx(t0)
    assert np.allclose(mat, mat.T)


def test_full_generator_sideband_weakens_with_r():
    strong = build_full_generator(MAN2, DressedParams(r=4.0)).matrix
    assert strong[0, 3] == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)))


def test_generator_validation():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        Generator(manifold=MAN2, matrix=bad, xi=1.0)
    with pytest.raises(ValueError):
        Generator(manifold=MAN2, matrix=np.zeros((5, 5)), xi=1.0)
    with pytest.raises(ValueError):
        Generator(manifold=MAN2, matrix=np.full((6, 6), np.nan), xi=1.0)
    one_inf = np.zeros((6, 6))
    one_inf[0, 1] = np.inf  # the relative symmetry test alone lets it through
    with pytest.raises(ValueError, match="finite"):
        Generator(manifold=MAN2, matrix=one_inf, xi=1.0)
    gen = build_large_xi_generator(MAN2)
    with pytest.raises(ValueError, match="real symmetric"):
        Generator(manifold=MAN2, matrix=gen.matrix.astype(complex), xi=1.0)
    with pytest.raises(ValueError):
        gen.matrix[0, 0] = 5.0
    for built in (gen, build_full_generator(MAN2, DressedParams(r=1.0))):
        assert built.matrix.dtype == np.float64
    given = np.zeros((6, 6))
    Generator(manifold=MAN2, matrix=given, xi=1.0)
    assert given.flags.writeable   # the generator froze a copy, not the input


@pytest.mark.parametrize("n_total, count", [(0, 1), (2, 4), (4, 7), (6, 8), (8, 8), (20, 8)])
def test_large_hopping_blocks_are_the_excitation_patterns(n_total, count):
    man = enumerate_manifold(n_total)
    large = build_large_xi_generator(man, xi=0.7)
    assert len(large.blocks) == count
    # the manifold's own index arrays, not copies made per generator
    assert all(b is p for b, p in zip(large.blocks, man.patterns.values()))
    if n_total:
        full = build_full_generator(man, DressedParams(r=1.2, delta=0.3))
        assert full.blocks == (slice(0, man.dim),)


def test_a_matrix_coupling_two_patterns_is_one_block():
    mat = build_large_xi_generator(MAN2).matrix.copy()
    assert len(Generator(manifold=MAN2, matrix=mat, xi=1.0).blocks) == 4
    # |g0,g0,g2> (pattern ()) to |g0,g0,e0> (pattern (3,))
    mat[0, 3] = mat[3, 0] = 1e-300
    assert Generator(manifold=MAN2, matrix=mat, xi=1.0).blocks == (slice(0, 6),)
    assert len(Generator(manifold=MAN2, matrix=np.zeros((6, 6)), xi=1.0).blocks) == 4


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


def _per_state_dressed_terms(manifold, params):
    """The dressed terms state by state: each state's per-cavity diagonal
    terms summed in ascending order, weight * tan on each (|e,n>, |g,n+2>)."""
    scale = energy_scale(manifold.n_total, params)
    mat = np.zeros((manifold.dim, manifold.dim))
    for i, state in enumerate(manifold.basis):
        diagonal = []
        for cav, level in enumerate(state.levels):
            n = level.photons if level.excited else level.photons - 2
            if n < 0:  # |g,0> is no member of a dressed pair
                continue
            cos, sin = mixing_angle(n, params)
            weight = splitting(n, params) * cos * cos / scale
            tan = sin / cos
            if not level.excited:
                diagonal.append(weight)
                continue
            diagonal.append(weight * tan * tan)
            partner = list(state.levels)
            partner[cav] = CavityLevel(Excitation.GROUND, level.pairs + 1)
            j = manifold.index_of(BasisState(tuple(partner)))
            mat[i, j] = mat[j, i] = weight * tan
        mat[i, i] = sum(sorted(diagonal))
    return mat


@pytest.mark.parametrize("n_total", EVEN_TOTALS)
@settings(max_examples=20)
@given(r=st.floats(0.05, 20.0), delta=st.floats(-10.0, 10.0))
def test_dressed_terms_equal_the_per_state_loop(n_total, r, delta):
    man = enumerate_manifold(n_total)
    params = DressedParams(r=r, delta=delta)
    if not n_total:
        # no dressed pair: the reference pair n_total - 2 does not exist
        with pytest.raises(ValueError, match="pair label"):
            build_full_generator(man, params, 0.0)
        return
    assert np.array_equal(build_full_generator(man, params, 0.0).matrix,
                          _per_state_dressed_terms(man, params))


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_builders_reject_non_finite_xi(xi):
    with pytest.raises(ValueError, match="finite"):
        build_large_xi_generator(MAN2, xi)
    with pytest.raises(ValueError, match="finite"):
        build_full_generator(MAN2, DressedParams(r=1.0), xi)


# ------------------------------------------------------------------- blocks

def test_project_onto_requires_orthonormal_states():
    gen = build_large_xi_generator(MAN2)
    v0 = np.eye(6)[:, 0]
    with pytest.raises(ValueError):
        project_onto(gen, np.column_stack([v0, v0]))


def test_project_onto_gram_check_fails_closed_on_nan():
    emb = np.eye(6)[:, :2]
    emb[0, 0] = math.nan
    with pytest.raises(ValueError, match="orthonormal"):
        project_onto(build_large_xi_generator(MAN2), emb)


def test_project_onto_refuses_complex_states():
    # even with a zero imaginary part: every block is real columns
    with pytest.raises(ValueError, match="real"):
        project_onto(build_large_xi_generator(MAN2), np.eye(6, dtype=complex)[:, :2])


def test_every_builder_refuses_a_block():
    gen = build_large_xi_generator(MAN4)
    block = sector_block(gen, 0)
    with pytest.raises(ValueError, match="expected a Generator, got Block"):
        project_onto(block, np.eye(len(block.matrix))[:, :1])
    with pytest.raises(ValueError, match="expected a Generator, got Block"):
        sector_block(block, 0)
    with pytest.raises(ValueError, match="expected a Generator, got Block"):
        symmetry_blocks(block, (1, 2))
    with pytest.raises(ValueError, match="expected a Generator, got Block"):
        permutation_symmetric_block(block)


def test_project_onto_exchange_symmetric_corner():
    gen = build_large_xi_generator(MAN2)
    e = np.eye(6)
    sym = (e[1] + e[2]) / math.sqrt(2.0)
    block = project_onto(gen, np.column_stack([e[0], sym]))
    rt8 = math.sqrt(8.0)
    assert np.allclose(block.matrix, [[0.0, rt8], [rt8, 2.0]])
    assert np.linalg.eigvalsh(block.matrix) == pytest.approx([-2.0, 4.0])
    assert block.embedding.shape == (6, 2)


def test_sector_block_invariance_in_large_hopping_mode():
    gen = build_large_xi_generator(MAN6)
    for k, idx in enumerate(MAN6.sectors):
        if not idx:
            continue
        block = sector_block(gen, k)
        assert block.matrix.shape == (len(idx), len(idx))
        # invariant: the generator never leaks out of the sector columns
        leak = np.delete(gen.matrix[:, list(idx)], list(idx), axis=0)
        assert np.max(np.abs(leak)) == 0.0
    with pytest.raises(ValueError):
        sector_block(build_large_xi_generator(MAN4), 3)


@pytest.mark.parametrize("count", [-1, 4, 1.0, "1", None, True, False])
def test_sector_block_takes_an_excited_count_in_0_to_3(count):
    # -1 used to index from the end and return the three-excited block, 4
    # raised IndexError, and a bool was read as 0 or 1
    with pytest.raises(ValueError, match="excited_count must be an int in 0-3"):
        sector_block(build_large_xi_generator(MAN6), count)


def test_symmetry_blocks_split_dimensions_and_spectrum():
    gen = build_large_xi_generator(MAN2)
    sym, asym = symmetry_blocks(gen, (np.int64(2), 3))
    assert (len(sym.matrix), len(asym.matrix)) == (4, 2)
    merged = np.concatenate([
        np.linalg.eigvalsh(sym.matrix), np.linalg.eigvalsh(asym.matrix)])
    assert np.sort(merged) == pytest.approx(np.linalg.eigvalsh(gen.matrix))


def test_symmetry_blocks_reject_bad_exchange():
    gen = build_large_xi_generator(MAN2)
    # (1.0, 2.0) used to raise TypeError and (True, 2) to split as (1, 2)
    for exchange in ((1, 1), (0, 1), (3, 4), (1.0, 2.0), (True, 2), (2, True),
                     ("1", "2")):
        with pytest.raises(ValueError, match="two distinct cavities"):
            symmetry_blocks(gen, exchange)


def test_symmetry_blocks_reject_a_generator_the_exchange_moves():
    mat = np.zeros((6, 6))
    mat[0, 0] = 1.0   # on |g0,g0,g2>: only the 1<->2 exchange keeps it
    gen = Generator(manifold=MAN2, matrix=mat, xi=1.0)
    with pytest.raises(ValueError, match=r"exchange \(1, 3\) does not commute"):
        symmetry_blocks(gen, (1, 3))
    sym, asym = symmetry_blocks(gen, (1, 2))
    assert (len(sym.matrix), len(asym.matrix)) == (4, 2)


def test_permutation_symmetric_block_reproduces_symmetric_dynamics():
    gen = build_large_xi_generator(MAN2)
    block = permutation_symmetric_block(gen)
    # orbit sums: one photon orbit, one excited orbit
    assert block.matrix.shape == (2, 2)
    assert np.linalg.eigvalsh(block.matrix) == pytest.approx([0.0, 4.0])
    gram = block.embedding.T @ block.embedding
    assert np.allclose(gram, np.eye(2))


# One compression route: every builder must give the blocks of the dedicated
# complex builders it replaced, entry for entry, in real storage.  The
# reference copies below are those builders: each compresses with its own
# complex emb^H M emb.

def _reference_sector(generator, k):
    man = generator.manifold
    idx = man.sectors[k]
    emb = np.zeros((man.dim, len(idx)), dtype=complex)
    for col, i in enumerate(idx):
        emb[i, col] = 1.0
    return emb.conj().T @ generator.matrix @ emb, emb


def _reference_exchange(generator, exchange):
    manifold, mat = generator.manifold, generator.matrix
    i, j = exchange
    perm = [1, 2, 3]
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    # column c of the relabeling matrix is the basis vector of c's image
    swap = np.eye(manifold.dim)[:, manifold.images(tuple(perm))]
    n = manifold.dim
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
            return np.zeros((0, 0), dtype=complex), np.zeros((n, 0), dtype=complex)
        b = np.column_stack(cols)
        return b.conj().T @ mat @ b, b

    return make(sym_cols), make(asym_cols)


def _reference_fully_symmetric(generator):
    manifold = generator.manifold
    sym_states, seen = [], set()
    for b in manifold.basis:
        if b in seen:
            continue
        orbit = {permuted(b, p) for p in ALL_PERMUTATIONS}
        seen.update(orbit)
        vec = np.zeros(manifold.dim, dtype=complex)
        for s in orbit:
            vec[manifold.index_of(s)] = 1.0
        sym_states.append(vec / np.linalg.norm(vec))
    emb = np.column_stack(sym_states)
    return emb.conj().T @ generator.matrix @ emb, emb


def _same_block(block, reference):
    mat, emb = reference
    assert block.matrix.dtype == block.embedding.dtype == np.float64
    assert block.matrix.shape == mat.shape and block.embedding.shape == emb.shape
    assert np.array_equal(block.matrix, mat)
    assert np.array_equal(block.embedding, emb)


def _generators(n_total):
    """Both generators on the manifold; N = 0 has no full one."""
    man = enumerate_manifold(n_total)
    gens = [build_large_xi_generator(man, xi=0.37)]
    if n_total:
        gens.append(build_full_generator(man, DressedParams(r=0.7, delta=0.3), xi=1.3))
    return gens


@pytest.mark.parametrize("n_total", [0, 2, 4, 6, 8])
def test_block_builders_equal_the_dedicated_compressions(n_total):
    for gen in _generators(n_total):
        assert sector_block(gen, 0).manifold is gen.manifold
        for k, idx in enumerate(gen.manifold.sectors):
            if idx:
                _same_block(sector_block(gen, k), _reference_sector(gen, k))
        _same_block(permutation_symmetric_block(gen), _reference_fully_symmetric(gen))
        for exchange in ((1, 2), (1, 3), (2, 3)):
            for block, ref in zip(symmetry_blocks(gen, exchange),
                                  _reference_exchange(gen, exchange)):
                _same_block(block, ref)
