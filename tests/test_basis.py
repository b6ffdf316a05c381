"""Restricted-basis enumeration, product states, and cavity relabeling."""

import itertools
import math

import numpy as np
import pytest

from trimodal.basis import (
    ALL_PERMUTATIONS,
    BasisState,
    CavityLevel,
    Excitation,
    StateVector,
    UnsupportedProductError,
    enumerate_manifold,
    parse_level,
    permute_cavities,
    product_state,
    symmetrize,
)

from trimodal.dynamics import build_large_xi_generator
from trimodal.evolve import propagate

from references import permuted


def lv(text):
    return parse_level(text)


def state(*levels):
    return BasisState(tuple(parse_level(t) for t in levels))


# ---------------------------------------------------------------- enumeration

def _reference_manifold(n_total):
    """Alphabet and canonically ordered level triples, built object by object.

    Every triple of levels whose local totals add up to n_total, sorted by
    excited-atom count, then by (excited, photons) cavity by cavity with
    cavity 1 most significant.
    """
    levels = sorted(
        [CavityLevel.from_photons("g", n) for n in range(0, n_total + 1, 2)]
        + [CavityLevel.from_photons("e", n) for n in range(0, n_total - 1, 2)],
        key=lambda lv: (lv.excited, lv.photons))
    local = {lv: lv.local_total for lv in levels}
    triples = [t for t in itertools.product(levels, repeat=3)
               if local[t[0]] + local[t[1]] + local[t[2]] == n_total]
    triples.sort(key=lambda t: (sum(lv.excited for lv in t),)
                 + tuple((lv.excited, lv.photons) for lv in t))
    return levels, triples


@pytest.mark.parametrize("n_total", range(0, 31, 2))
def test_enumeration_matches_an_object_level_reference(n_total):
    levels, triples = _reference_manifold(n_total)
    man = enumerate_manifold(n_total)
    assert man.levels == tuple(levels)
    assert man.dim == len(triples)
    assert man.basis == tuple(BasisState(t) for t in triples)
    position = {lv: k for k, lv in enumerate(levels)}
    assert np.array_equal(man.coords,
                          [[position[lv] for lv in t] for t in triples])
    excited = [sum(lv.excited for lv in t) for t in triples]
    assert man.sectors == tuple(
        tuple(i for i, k in enumerate(excited) if k == count) for count in range(4))
    assert all(type(i) is int for sector in man.sectors for i in sector)
    assert not man.coords.flags.writeable
    with pytest.raises(ValueError):
        man.coords[0, 0] = 0


@pytest.mark.parametrize("n_total, dim", [(0, 1), (2, 6), (4, 18), (6, 38)])
def test_manifold_dimensions(n_total, dim):
    assert enumerate_manifold(n_total).dim == dim


@pytest.mark.parametrize("n_total, alphabet", [(2, 3), (4, 5), (6, 7)])
def test_per_cavity_alphabet(n_total, alphabet):
    man = enumerate_manifold(n_total)
    assert man.qudit_dim == alphabet
    assert len(man.levels) == alphabet


def test_alphabet_canonical_order():
    # ground levels by photon number, then excited levels by photon number
    assert [str(l) for l in enumerate_manifold(4).levels] == \
        ["g0", "g2", "g4", "e0", "e2"]


def test_sector_sizes_total_six():
    man = enumerate_manifold(6)
    assert tuple(len(s) for s in man.sectors) == (10, 18, 9, 1)


def test_sectors_partition_basis():
    for n_total in (2, 4, 6):
        man = enumerate_manifold(n_total)
        flat = [i for sector in man.sectors for i in sector]
        assert sorted(flat) == list(range(man.dim))
        for k, sector in enumerate(man.sectors):
            assert all(man.basis[i].excited_count == k for i in sector)


@pytest.mark.parametrize("n_total", range(0, 21, 2))
def test_patterns_refine_the_sectors(n_total):
    man = enumerate_manifold(n_total)
    groups = {}
    for i, b in enumerate(man.basis):
        groups.setdefault(tuple(c + 1 for c, lv in enumerate(b.levels) if lv.excited),
                          []).append(i)
    assert list(man.patterns) == sorted(groups)
    for key, idx in man.patterns.items():
        assert idx.tolist() == groups[key]
        assert set(idx.tolist()) <= set(man.sectors[len(key)])
        assert not idx.flags.writeable
    with pytest.raises(TypeError):
        man.patterns[()] = np.arange(man.dim)


def test_canonical_order_total_two():
    man = enumerate_manifold(2)
    assert [str(b) for b in man.basis] == [
        "|g0,g0,g2>", "|g0,g2,g0>", "|g2,g0,g0>",
        "|g0,g0,e0>", "|g0,e0,g0>", "|e0,g0,g0>",
    ]


def test_every_basis_state_carries_the_total():
    for n_total in (2, 4, 6):
        man = enumerate_manifold(n_total)
        assert all(b.total == n_total for b in man.basis)


def test_index_roundtrip_and_missing_state():
    man = enumerate_manifold(4)
    for i, b in enumerate(man.basis):
        assert man.index_of(b) == i
    with pytest.raises(KeyError):
        man.index_of(state("g2", "g0", "g0"))  # total 2, wrong manifold


@pytest.mark.parametrize("bad", [-2, 3, 5])
def test_odd_or_negative_totals_rejected(bad):
    with pytest.raises(ValueError):
        enumerate_manifold(bad)


def test_a_numpy_integer_total_gives_the_same_manifold():
    # propagate checks the manifold by identity, so a state built on one
    # spelling of the total must evolve under a generator built on the other
    man = enumerate_manifold(np.int64(2))
    assert man is enumerate_manifold(2)
    assert type(man.n_total) is int
    start = StateVector(man, np.eye(man.dim)[0])
    traj = propagate(build_large_xi_generator(enumerate_manifold(2)), start, [0.0, 0.4])
    assert np.allclose(traj.amplitudes[0], start.amplitudes, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_a_total_that_is_not_an_integer_is_refused(bad):
    with pytest.raises(ValueError, match="total count must be an integer"):
        enumerate_manifold(bad)


# ---------------------------------------------------------------- levels

def test_parse_level_roundtrip():
    for text in ("g0", "g2", "g4", "g6", "e0", "e2", "e4"):
        assert str(parse_level(text)) == text


@pytest.mark.parametrize("bad", ["", "g", "x2", "g-2", "g2.5", "2g", "eg2"])
def test_parse_level_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_level(bad)


def test_odd_photon_numbers_are_unrepresentable():
    with pytest.raises(ValueError):
        parse_level("g3")
    with pytest.raises(ValueError):
        CavityLevel.from_photons("g", 1)


def test_local_count_includes_the_stored_pair():
    # an excited atom holds one absorbed pair: |e,n> counts n + 2
    assert lv("g4").local_total == 4
    assert lv("e2").local_total == 4
    assert lv("e0").local_total == 2
    assert lv("e2").photons == 2
    assert lv("e2").excited and not lv("g4").excited
    assert lv("g0").excitation is Excitation.GROUND


# ---------------------------------------------------------------- vectors

def test_state_vector_shape_and_immutability():
    man = enumerate_manifold(2)
    with pytest.raises(ValueError):
        StateVector(man, np.zeros(5, dtype=complex))
    vec = StateVector(man, np.eye(6)[0])
    with pytest.raises(ValueError):
        vec.amplitudes[0] = 0.0
    assert vec.norm == pytest.approx(1.0)
    assert vec.amplitudes[man.index_of(man.basis[0])] == 1.0 + 0.0j


# ---------------------------------------------------------------- products

def test_product_state_basis_case():
    man = enumerate_manifold(2)
    vec = product_state(man, [[(lv("g2"), 1.0)], [(lv("g0"), 1.0)], [(lv("g0"), 1.0)]])
    assert vec.amplitudes[man.index_of(state("g2", "g0", "g0"))] == pytest.approx(1.0)
    assert vec.norm == pytest.approx(1.0)


def test_product_state_superposed_factor():
    man = enumerate_manifold(2)
    c = 1.0 / np.sqrt(2.0)
    vec = product_state(
        man,
        [[(lv("g2"), c), (lv("e0"), 1j * c)], [(lv("g0"), 1.0)], [(lv("g0"), 1.0)]],
    )
    assert vec.amplitudes[man.index_of(state("g2", "g0", "g0"))] == pytest.approx(c)
    assert vec.amplitudes[man.index_of(state("e0", "g0", "g0"))] == pytest.approx(1j * c)


def test_product_state_rejects_leaking_cross_terms():
    man = enumerate_manifold(2)
    c = 1.0 / np.sqrt(2.0)
    factors = [
        [(lv("g0"), c), (lv("g2"), c)],
        [(lv("g0"), c), (lv("g2"), c)],
        [(lv("g0"), 1.0)],
    ]
    # the g2 (x) g2 cross term carries total 4
    with pytest.raises(UnsupportedProductError):
        product_state(man, factors)


def test_product_state_input_validation():
    man = enumerate_manifold(2)
    good = [(lv("g0"), 1.0)]
    with pytest.raises(ValueError):
        product_state(man, [good, good])  # two factors only
    with pytest.raises(ValueError):
        product_state(man, [[], good, good])
    with pytest.raises(ValueError):
        product_state(man, [[(lv("g2"), 0.5)], good, good])  # not normalized
    with pytest.raises(ValueError):
        product_state(
            man,
            [[(lv("g2"), 0.8), (lv("g2"), 0.6)], good, good],  # repeated level
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_product_state_norm_check_fails_closed(bad):
    man = enumerate_manifold(2)
    good = [(lv("g0"), 1.0)]
    with pytest.raises(ValueError, match="squared norm"):
        product_state(man, [[(lv("g2"), bad)], good, good])


# ---------------------------------------------------------------- relabeling

def test_permutation_matrix_matches_permute_cavities():
    rng = np.random.default_rng(11)
    man = enumerate_manifold(4)
    amps = rng.normal(size=man.dim) + 1j * rng.normal(size=man.dim)
    vec = StateVector(man, amps / np.linalg.norm(amps))
    for perm in ALL_PERMUTATIONS:
        mat = np.eye(man.dim)[:, man.images(perm)]
        assert np.allclose(mat @ vec.amplitudes,
                           permute_cavities(vec, perm).amplitudes)
        assert np.allclose(mat @ mat.T, np.eye(man.dim))


def test_permuted_moves_contents_where_told():
    # cavity 1 -> 2, 2 -> 3, 3 -> 1
    assert str(permuted(state("g2", "g0", "g0"), (2, 3, 1))) == "|g0,g2,g0>"


def test_invalid_permutations_rejected():
    man = enumerate_manifold(2)
    with pytest.raises(ValueError):
        man.images((1, 1, 2))
    with pytest.raises(ValueError):
        permute_cavities(StateVector(man, np.eye(6)[0]), (0, 1, 2))


def test_symmetrize_orbit_weights():
    vec = symmetrize(state("g2", "g0", "g0"))
    man = vec.manifold
    expect = np.zeros(man.dim)
    expect[[0, 1, 2]] = 1.0 / np.sqrt(3.0)
    assert np.allclose(vec.amplitudes, expect)
    # a fully symmetric input is a fixed point
    sym = symmetrize(state("g2", "g2", "g2"))
    assert sym.amplitudes[sym.manifold.index_of(state("g2", "g2", "g2"))] == pytest.approx(1.0)
    # three distinct levels: six distinct images of equal weight
    six = symmetrize(state("g4", "g2", "g0"))
    assert np.allclose(np.sort(np.abs(six.amplitudes))[-6:], 1.0 / np.sqrt(6.0))
    assert np.count_nonzero(six.amplitudes) == 6
