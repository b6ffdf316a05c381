"""Geometric entanglement via the closest-product-state sweep.

Properties run under the derandomized hypothesis profile loaded in
conftest.py, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimodal.analytic import FAMILIES, evaluate
from trimodal.basis import (
    ALL_PERMUTATIONS,
    StateVector,
    enumerate_manifold,
    parse_level,
    permute_cavities,
    product_state,
)
from trimodal.cli import parse_init
from trimodal.dynamics import build_large_xi_generator
from trimodal.entanglement import (
    ProductState,
    _starts,
    closed_form_overlap_n2,
    embed,
    geometric_entanglement,
    max_product_overlap,
    symmetric_quarter_turn_check,
)
from trimodal.evolve import propagate

MAN2 = enumerate_manifold(2)


def lv(text):
    return parse_level(text)


def test_embed_places_basis_states_on_the_qudit_grid():
    vec = product_state(MAN2, [[(lv("g2"), 1.0)], [(lv("g0"), 1.0)], [(lv("g0"), 1.0)]])
    tensor = embed(vec)
    d = MAN2.qudit_dim
    assert tensor.shape == (d, d, d)
    # alphabet is sorted ground-first: g0, g2, e0
    assert tensor[1, 0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(tensor) ** 2) == pytest.approx(1.0)


def test_product_state_overlap_agrees_with_embedding():
    rng = np.random.default_rng(2)
    d = MAN2.qudit_dim
    vecs = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    prod = ProductState(MAN2, (vecs[0], vecs[1], vecs[2]))
    amps = rng.normal(size=MAN2.dim) + 1j * rng.normal(size=MAN2.dim)
    state = StateVector(MAN2, amps / np.linalg.norm(amps))
    assert prod.overlap_with(state) == pytest.approx(
        np.vdot(prod.tensor(), embed(state)))


def test_product_state_validation():
    d = MAN2.qudit_dim
    unit = np.eye(d, dtype=complex)[0]
    with pytest.raises(ValueError):
        ProductState(MAN2, (unit[:2], unit, unit))
    with pytest.raises(ValueError):
        ProductState(MAN2, (2.0 * unit, unit, unit))
    with pytest.raises(ValueError):
        ProductState(MAN2, (np.full(d, np.nan, dtype=complex), unit, unit))


def test_unentangled_state_has_unit_overlap():
    c = 1.0 / math.sqrt(2.0)
    vec = product_state(
        MAN2,
        [[(lv("g2"), c), (lv("e0"), c)], [(lv("g0"), 1.0)], [(lv("g0"), 1.0)]],
    )
    result = max_product_overlap(vec, seed=0)
    assert result.overlap == pytest.approx(1.0, abs=1e-10)
    assert result.converged
    assert result.n_starts >= 1
    assert geometric_entanglement(vec, seed=0) == pytest.approx(0.0, abs=1e-9)


def test_sweep_agrees_with_the_reference_curve_on_its_window():
    # where cos(6 xi t) >= -1/8 the aligned product combination is optimal
    t = 0.1
    state = FAMILIES["n2_general"].state_vector(evaluate("n2_general", 1.0, t))
    result = max_product_overlap(state, seed=0)
    assert result.overlap == pytest.approx(
        closed_form_overlap_n2(1.0, 0.0, 1.0, t), abs=1e-9)


def test_sweep_beats_the_reference_curve_at_the_antinode():
    # at a sixth turn the best product state leaves the aligned combination:
    # the sweep lands on 64/135, above the curve's 1/9
    t = math.pi / 6.0
    state = FAMILIES["n2_general"].state_vector(evaluate("n2_general", 1.0, t))
    result = max_product_overlap(state, seed=0)
    assert result.overlap == pytest.approx(64.0 / 135.0, abs=1e-9)
    assert closed_form_overlap_n2(1.0, 0.0, 1.0, t) == pytest.approx(1.0 / 9.0)
    # one-sided: the sweep can only exceed the aligned-combination curve
    for phi in np.linspace(0.0, math.pi / 3.0, 12):
        st = FAMILIES["n2_general"].state_vector(evaluate("n2_general", 1.0, phi))
        res = max_product_overlap(st, restarts=8, seed=1)
        assert res.overlap >= closed_form_overlap_n2(1.0, 0.0, 1.0, phi) - 1e-9


def test_entanglement_is_log2_of_the_overlap():
    state = FAMILIES["n2_general"].state_vector(evaluate("n2_general", 1.0, 0.4))
    result = max_product_overlap(state, seed=1)
    assert geometric_entanglement(state, seed=1) == pytest.approx(
        -math.log2(result.overlap))


def test_closed_form_overlap_vectorizes():
    ts = np.linspace(0.0, math.pi, 9)
    vals = closed_form_overlap_n2(1.0, 0.0, 1.0, ts)
    assert vals.shape == ts.shape
    assert vals[0] == pytest.approx(1.0)
    assert vals.min() == pytest.approx(1.0 / 9.0)
    # a sideband-weighted start floors the overlap at |b|^2
    assert closed_form_overlap_n2(0.0, 1.0, 1.0, 0.7) == pytest.approx(1.0)


def test_sweep_input_validation():
    state = StateVector(MAN2, np.eye(6)[0])
    with pytest.raises(ValueError):
        max_product_overlap(state, restarts=0, seed=0)
    with pytest.raises(ValueError):
        max_product_overlap(state, tol=0.0, seed=0)
    with pytest.raises(ValueError):
        max_product_overlap(StateVector(MAN2, 0.7 * np.eye(6)[0]), seed=0)
    with pytest.raises(ValueError):
        max_product_overlap(state, max_sweeps=0, seed=0)


def test_sweep_input_validation_fails_closed_on_nan():
    state = StateVector(MAN2, np.eye(6)[0])
    with pytest.raises(ValueError, match="tol"):
        max_product_overlap(state, tol=math.nan, seed=0)
    amps = np.eye(6)[0].astype(complex)
    amps[3] = np.nan
    with pytest.raises(ValueError, match="norm"):
        max_product_overlap(StateVector(MAN2, amps), seed=0)


def test_product_start_has_overlap_one_and_zero_entanglement():
    # the sweep's rounding put this at overlap 1.0000000000000009 and
    # entanglement -1.28e-15 before the clamp
    result = max_product_overlap(parse_init("g0|g0|g2", 2), seed=0)
    assert result.overlap == 1.0
    assert result.entanglement == 0.0
    assert math.copysign(1.0, result.entanglement) == 1.0
    assert result.converged


@pytest.mark.parametrize("n_total", [2, 4])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 8))
def test_overlap_lies_between_the_largest_basis_weight_and_one(n_total, seed,
                                                               restarts):
    man = enumerate_manifold(n_total)
    draw = np.random.default_rng(seed).standard_normal((man.dim, 2))
    amps = draw[:, 0] + 1j * draw[:, 1]
    state = StateVector(man, amps / np.linalg.norm(amps))
    result = max_product_overlap(state, restarts=restarts, seed=seed)
    assert np.max(np.abs(state.amplitudes)) ** 2 <= result.overlap <= 1.0


@pytest.mark.parametrize("n_total", [2, 4])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_overlap_is_invariant_under_relabeling_and_local_phases(n_total, seed):
    man = enumerate_manifold(n_total)
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((man.dim, 2))
    amps = draw[:, 0] + 1j * draw[:, 1]
    state = StateVector(man, amps / np.linalg.norm(amps))
    overlap = max_product_overlap(state, restarts=8, seed=seed).overlap
    # one random phase per cavity level: a product of local diagonal unitaries
    phases = rng.uniform(0.0, 2.0 * math.pi, (3, man.qudit_dim))
    local = np.exp(1j * phases[np.arange(3), man.coords].sum(axis=1))
    moved = [permute_cavities(state, perm) for perm in ALL_PERMUTATIONS[1:]]
    moved.append(StateVector(man, local * state.amplitudes))
    for other in moved:
        got = max_product_overlap(other, restarts=8, seed=seed).overlap
        assert abs(got - overlap) <= 1e-9


def _all_start_reference(state, restarts, seed, tol=1e-12, max_sweeps=10_000):
    """The sweep run on every start row, without collapsing duplicates."""
    def normalize_rows(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return m / np.where(norms > 0.0, norms, 1.0)

    t = embed(state)
    u, v, w = _starts(state.manifold.qudit_dim, restarts, seed)
    sigma = np.abs(np.einsum("ijk,si,sj,sk->s", t, u.conj(), v.conj(), w.conj()))
    settled = np.zeros(sigma.shape, dtype=bool)
    sweeps = 0
    while sweeps < max_sweeps and not settled.all():
        u = normalize_rows(np.einsum("ijk,sj,sk->si", t, v.conj(), w.conj()))
        v = normalize_rows(np.einsum("ijk,si,sk->sj", t, u.conj(), w.conj()))
        w = normalize_rows(np.einsum("ijk,si,sj->sk", t, u.conj(), v.conj()))
        new = np.abs(np.einsum("ijk,si,sj,sk->s", t, u.conj(), v.conj(), w.conj()))
        settled = np.abs(new - sigma) <= tol
        sigma = new
        sweeps += 1
    best = int(np.argmax(sigma))
    return dict(overlap=float(sigma[best] ** 2), start_index=best,
                n_starts=int(sigma.size), sweeps=sweeps,
                converged=bool(settled[best]), vectors=(u[best], v[best], w[best]))


@pytest.mark.parametrize("n_total, init, phase, restarts", [
    (2, "g0|g0|0.6:g2+0.8:e0", 0.4, 64),
    (2, "g0|g0|g2", 0.0, 64),            # product start: many tied starts
    (4, "g0|g2|g2", 0.19, 64),
    (6, "g2|g2|g2", 0.3, 16),
    (8, "g0|g0|g8", 0.5, 4),
])
def test_collapsed_sweep_equals_the_all_start_reference(n_total, init, phase, restarts):
    man = enumerate_manifold(n_total)
    traj = propagate(build_large_xi_generator(man), parse_init(init, n_total),
                     [phase], times_are_phase=True)
    state = traj.state(0)
    ref = _all_start_reference(state, restarts, seed=0)
    got = max_product_overlap(state, restarts, seed=0)
    d = man.qudit_dim
    assert got.n_starts == ref["n_starts"] == d ** 3 + restarts
    assert (got.start_index, got.sweeps, got.converged) == \
        (ref["start_index"], ref["sweeps"], ref["converged"])
    assert got.overlap == min(ref["overlap"], 1.0)
    for mine, theirs in zip(got.maximizer.vectors, ref["vectors"]):
        assert np.array_equal(mine, theirs)


def test_maximizer_reports_its_levels():
    vec = product_state(MAN2, [[(lv("g0"), 1.0)], [(lv("e0"), 1.0)], [(lv("g0"), 1.0)]])
    result = max_product_overlap(vec, seed=0)
    assert tuple(str(l) for l in result.maximizer.dominant_levels()) == \
        ("g0", "e0", "g0")


def test_seeded_sweep_is_reproducible():
    state = FAMILIES["n4_two_cavity"].state_vector(evaluate("n4_two_cavity", 1.0, 0.19))
    first = max_product_overlap(state, restarts=8, seed=42)
    second = max_product_overlap(state, restarts=8, seed=42)
    assert first.overlap == second.overlap
    other = max_product_overlap(state, restarts=8, seed=43)
    assert other.overlap == pytest.approx(first.overlap, abs=1e-9)


def test_quarter_turn_probe_beats_the_basis_reading():
    check = symmetric_quarter_turn_check(l=0, seed=0)
    assert check.tau == pytest.approx(0.5 * math.pi / (2.0 * math.sqrt(66.0)))
    assert check.amplitudes_ok
    assert check.basis_overlap == pytest.approx(25.0 / 121.0)
    # the sweep reproducibly finds a better product state than any basis one
    assert check.optimizer_overlap > check.basis_overlap + 1e-3
    assert not check.matches_basis
    assert check.result.converged


def test_quarter_turn_probe_is_periodic_in_the_odd_index():
    a = symmetric_quarter_turn_check(l=0, seed=0)
    b = symmetric_quarter_turn_check(l=1, seed=0)
    assert b.tau == pytest.approx(3.0 * a.tau)
    assert b.amplitudes_ok
    assert b.optimizer_overlap == pytest.approx(a.optimizer_overlap, abs=1e-9)
