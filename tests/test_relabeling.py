"""Cavity relabelings: the per-manifold index table against its per-state
definition, and the symmetry every consumer of the table relies on.

Properties run under the derandomized hypothesis profile loaded in
conftest.py, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimodal.basis import (
    ALL_PERMUTATIONS,
    StateVector,
    enumerate_manifold,
    permute_cavities,
)
from trimodal.dressed import DressedParams
from trimodal.dynamics import build_full_generator, build_large_xi_generator
from references import embed, permuted

EVEN_TOTALS = (0, 2, 4, 6, 8)


@pytest.mark.parametrize("n_total", EVEN_TOTALS)
def test_images_agree_with_the_per_state_relabeling(n_total):
    man = enumerate_manifold(n_total)
    for perm in ALL_PERMUTATIONS:
        expected = [man.index_of(permuted(b, perm)) for b in man.basis]
        assert man.images(perm).tolist() == expected


@pytest.mark.parametrize("n_total", EVEN_TOTALS)
def test_images_compose_like_the_relabelings(n_total):
    man = enumerate_manifold(n_total)
    for p in ALL_PERMUTATIONS:
        for q in ALL_PERMUTATIONS:
            # q first, then p: cavity c's level ends at p[q[c] - 1]
            pq = tuple(p[target - 1] for target in q)
            assert np.array_equal(man.images(pq), man.images(p)[man.images(q)])


def test_coords_table_is_read_only_and_validates_perm():
    man = enumerate_manifold(4)
    with pytest.raises(ValueError):
        man.coords[0, 0] = 1
    for bad in ((1, 1, 2), (0, 1, 2), (1, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            man.images(bad)


@pytest.mark.parametrize("n_total", EVEN_TOTALS)
def test_orbits_agree_with_the_per_state_orbits(n_total):
    man = enumerate_manifold(n_total)
    # numbered as first met in basis order, i.e. by each orbit's lowest member
    number, count = {}, 0
    for b in man.basis:
        if b not in number:
            number.update((permuted(b, p), count) for p in ALL_PERMUTATIONS)
            count += 1
    assert man.orbits.tolist() == [number[b] for b in man.basis]
    with pytest.raises(ValueError):
        man.orbits[0] = 1


@pytest.mark.parametrize("n_total", EVEN_TOTALS)
@settings(max_examples=20)
@given(xi=st.floats(-100.0, 100.0), r=st.floats(0.05, 20.0),
       delta=st.floats(-10.0, 10.0))
def test_generators_commute_with_every_relabeling(n_total, xi, r, delta):
    # exactly: the hopping multiplies its two roots before xi, whichever of
    # bra and ket holds which, and the full generator sums each state's
    # per-cavity diagonal terms in ascending order, not in cavity order
    man = enumerate_manifold(n_total)
    gens = [build_large_xi_generator(man, xi)]
    if n_total:
        gens.append(build_full_generator(man, DressedParams(r=r, delta=delta), xi))
    for gen in gens:
        mat = gen.matrix
        for perm in ALL_PERMUTATIONS:
            images = man.images(perm)
            assert np.array_equal(mat[np.ix_(images, images)], mat)


@pytest.mark.parametrize("n_total", EVEN_TOTALS)
@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_embedding_a_relabeled_state_permutes_the_tensor_axes(n_total, seed):
    man = enumerate_manifold(n_total)
    draw = np.random.default_rng(seed).standard_normal((man.dim, 2))
    amps = draw[:, 0] + 1j * draw[:, 1]
    state = StateVector(man, amps / np.linalg.norm(amps))
    tensor = embed(state)
    for perm in ALL_PERMUTATIONS:
        # cavity c's axis moves to position perm[c] - 1
        moved = np.moveaxis(tensor, (0, 1, 2), tuple(t - 1 for t in perm))
        assert np.array_equal(embed(permute_cavities(state, perm)), moved)
