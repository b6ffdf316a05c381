"""Geometric entanglement via the closest-product-state sweep.

Properties run under the derandomized hypothesis profile loaded in
conftest.py, so every run draws the same examples.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimodal import entanglement, verification
from trimodal.analytic import FAMILIES
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
    MAX_RESTARTS,
    ProductState,
    _cavity_runs,
    _half_step,
    _normalize_rows,
    _starts,
    _sweep_overlap,
    closed_form_overlap_n2,
    max_product_overlap,
)
from trimodal.evolve import propagate
from trimodal.verification import _unit_pair

from references import embed, n2_sides, w_type_overlap

MAN2 = enumerate_manifold(2)
N2 = FAMILIES["n2_general"]


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
    amps = rng.normal(size=MAN2.dim) + 1j * rng.normal(size=MAN2.dim)
    state = StateVector(MAN2, amps / np.linalg.norm(amps))
    overlaps, sweep = _gather_kernel(state)
    u, v, w = vecs[:, None]
    tensor = np.einsum("i,j,k->ijk", *vecs)
    assert overlaps(u, v, w) == pytest.approx([abs(np.vdot(tensor, embed(state)))])
    # a sweep's overlap is the norm of its raw w half-step
    u, v, w, sigma = sweep(v, w)
    tensor = np.einsum("i,j,k->ijk", u[0], v[0], w[0])
    assert sigma == pytest.approx([abs(np.vdot(tensor, embed(state)))])
    # a basis start (i, j, k) reads |psi_ijk| exactly
    u, v, w = _starts(d, 1, seed=0)
    assert np.array_equal(overlaps(u, v, w)[:d ** 3], np.abs(embed(state)).ravel())


def _random_rows(rng, rows, size):
    draw = rng.standard_normal((rows, size, 2))
    return draw[..., 0] + 1j * draw[..., 1]


@pytest.mark.parametrize("n_total", [2, 4, 6, 8])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_gather_kernel_equals_the_dense_contraction(n_total, seed):
    # the sweep's half-steps contract over the manifold's dim amplitudes; on
    # the dense (d, d, d) tensor they are plain einsums
    man = enumerate_manifold(n_total)
    rng = np.random.default_rng(seed)
    state = _seeded_state(n_total, seed)
    t = embed(state)
    u, v, w = (_random_rows(rng, 5, man.qudit_dim) for _ in range(3))
    orders, others, starts = _cavity_runs(man.coords, man.qudit_dim)
    a = [np.tile(state.amplitudes[order], (5, 1)) for order in orders]
    dense = {
        0: np.einsum("ijk,sj,sk->si", t, v.conj(), w.conj()),
        1: np.einsum("ijk,si,sk->sj", t, u.conj(), w.conj()),
        2: np.einsum("ijk,si,sj->sk", t, u.conj(), v.conj()),
    }
    gathered = {
        0: _half_step(a[0], others[0], starts[0], v, w),
        1: _half_step(a[1], others[1], starts[1], u, w),
        2: _half_step(a[2], others[2], starts[2], u, v),
    }
    for cav, want in dense.items():
        assert np.all(np.linalg.norm(gathered[cav] - want, axis=1)
                      <= 1e-14 * np.linalg.norm(want, axis=1))
    # the w half-step's norm is the overlap with the w it returns
    nw, norms = _normalize_rows(gathered[2])
    want = np.abs(np.einsum("ijk,si,sj,sk->s", t, u.conj(), v.conj(), nw.conj()))
    assert np.all(np.abs(norms - want) <= 1e-14 * want)
    # the initial overlap: w's conjugate against the raw w half-step
    overlaps, _ = _gather_kernel(state)
    got = overlaps(u, v, w)
    want = np.abs(np.einsum("ijk,si,sj,sk->s", t, u.conj(), v.conj(), w.conj()))
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    # each row's bits are its own: a one-row call gives the same bits
    for r in range(5):
        one = slice(r, r + 1)
        for cav, (x, y) in enumerate([(v, w), (u, w), (u, v)]):
            alone = _half_step(a[cav][one], others[cav], starts[cav], x[one], y[one])
            assert np.array_equal(alone, gathered[cav][one])
        assert np.array_equal(_normalize_rows(gathered[2][one])[1], norms[one])
        assert np.array_equal(overlaps(u[one], v[one], w[one]), got[one])


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
    # N = 2 is solved in closed form: no start is drawn
    assert (result.n_starts, result.sweeps) == (0, 0)
    assert result.entanglement == pytest.approx(0.0, abs=1e-9)


def test_sweep_agrees_with_the_reference_curve_on_its_window():
    # where cos(6 xi t) >= -1/8 the aligned product combination is optimal
    t = 0.1
    state = N2.state_vector(N2.evaluate(1.0, t))
    result = max_product_overlap(state, seed=0)
    assert result.overlap == pytest.approx(
        closed_form_overlap_n2(1.0, 0.0, 1.0, t), abs=1e-9)


def test_sweep_beats_the_reference_curve_at_the_antinode():
    # at a sixth turn the best product state leaves the aligned combination:
    # the sweep lands on 64/135, above the curve's 1/9
    t = math.pi / 6.0
    state = N2.state_vector(N2.evaluate(1.0, t))
    result = max_product_overlap(state, seed=0)
    assert result.overlap == pytest.approx(64.0 / 135.0, abs=1e-9)
    assert closed_form_overlap_n2(1.0, 0.0, 1.0, t) == pytest.approx(1.0 / 9.0)
    # one-sided: the sweep can only exceed the aligned-combination curve
    for phi in np.linspace(0.0, math.pi / 3.0, 12):
        st = N2.state_vector(N2.evaluate(1.0, phi))
        res = max_product_overlap(st, restarts=8, seed=1)
        assert res.overlap >= closed_form_overlap_n2(1.0, 0.0, 1.0, phi) - 1e-9


def test_entanglement_is_log2_of_the_overlap():
    state = N2.state_vector(N2.evaluate(1.0, 0.4))
    result = max_product_overlap(state, seed=1)
    assert result.entanglement == pytest.approx(-math.log2(result.overlap))


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
    with pytest.raises(ValueError, match=str(MAX_RESTARTS)):
        max_product_overlap(state, restarts=MAX_RESTARTS + 1, seed=0)
    # each of these used to fail inside numpy or the range comparison
    for restarts in (True, 2.5, "3"):
        with pytest.raises(ValueError, match="restarts must be an integer"):
            max_product_overlap(state, restarts=restarts, seed=0)
    assert max_product_overlap(state, restarts=np.int64(2), seed=0).overlap == 1.0
    with pytest.raises(ValueError):
        max_product_overlap(StateVector(MAN2, 0.7 * np.eye(6)[0]), seed=0)


def test_sweep_rejects_a_seed_of_none():
    # None would draw fresh random starts, so repeated calls could disagree
    fam = FAMILIES["n4_single_cavity"]
    state = fam.state_vector(fam.evaluate(1.0, 0.7))
    with pytest.raises(ValueError, match="seed"):
        max_product_overlap(state, seed=None)


def test_sweep_input_validation_fails_closed_on_nan():
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


def _gather_kernel(state):
    """The sweep's gather contraction on one state, every row against the
    state's amplitudes: the initial overlap (w's conjugate against the raw w
    half-step from (u, v)), and one sweep from (v, w), returning the new
    (u, v, w) and the norms of the raw w half-step as the overlaps."""
    man = state.manifold
    orders, others, starts = _cavity_runs(man.coords, man.qudit_dim)
    a = [state.amplitudes[order] for order in orders]

    def half_step(cav, x, y):
        return _half_step(a[cav], others[cav], starts[cav], x, y)

    def overlaps(u, v, w):
        return np.abs((w.conj() * half_step(2, u, v)).sum(axis=1))

    def sweep(v, w):
        u = _normalize_rows(half_step(0, v, w))[0]
        v = _normalize_rows(half_step(1, u, w))[0]
        return (u, v, *_normalize_rows(half_step(2, u, v)))

    return overlaps, sweep


def _swept(state, restarts, seed):
    """The sweep's result: the private sweep at N = 2, where the public
    route is the closed form, and the public route on larger manifolds."""
    if state.manifold.n_total == 2:
        return _sweep_overlap(state, restarts, seed)
    return max_product_overlap(state, restarts, seed=seed)


def _all_start_reference(state, restarts, seed, tol=1e-12, max_sweeps=10_000):
    """The sweep run on every start row, without collapsing duplicates."""
    overlaps, sweep = _gather_kernel(state)
    u, v, w = _starts(state.manifold.qudit_dim, restarts, seed)
    sigma = overlaps(u, v, w)
    settled = np.zeros(sigma.shape, dtype=bool)
    sweeps = 0
    while sweeps < max_sweeps and not settled.all():
        u, v, w, new = sweep(v, w)
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
    got = _swept(state, restarts, seed=0)
    d = man.qudit_dim
    assert got.n_starts == ref["n_starts"] == d ** 3 + restarts
    assert (got.start_index, got.sweeps, got.converged) == \
        (ref["start_index"], ref["sweeps"], ref["converged"])
    assert got.overlap == min(ref["overlap"], 1.0)
    for mine, theirs in zip(got.maximizer.vectors, ref["vectors"]):
        assert np.array_equal(mine, theirs)


def _all_row_sweep(state, restarts, seed, tol=1e-12, max_sweeps=10_000):
    """The all-row sweep, with no early row exit: duplicate basis starts
    collapsed to one row, every row swept until all starts settle."""
    overlaps, sweep = _gather_kernel(state)
    d = state.manifold.qudit_dim
    u, v, w = _starts(d, restarts, seed)
    sigma = overlaps(u, v, w)
    row_of = np.concatenate([np.arange(d ** 3) % d ** 2,
                             d ** 2 + np.arange(restarts)])
    first = np.concatenate([np.arange(d ** 2), d ** 3 + np.arange(restarts)])
    v, w = v[first], w[first]
    settled = np.zeros(sigma.shape, dtype=bool)
    sweeps = 0
    while sweeps < max_sweeps and not settled.all():
        u, v, w, new = sweep(v, w)
        new = new[row_of]
        settled = np.abs(new - sigma) <= tol
        sigma = new
        sweeps += 1
    best = int(np.argmax(sigma))
    row = row_of[best]
    overlap = min(float(sigma[best] ** 2), 1.0)
    return dict(overlap=overlap,
                entanglement=abs(math.log2(overlap)) if overlap > 0 else math.inf,
                converged=bool(settled[best]), sweeps=sweeps, start_index=best,
                n_starts=int(sigma.size), unconverged_starts=int((~settled).sum()),
                vectors=(u[row], v[row], w[row]), n_rows=first.size)


def _assert_equals_reference(got, ref):
    for key in ("overlap", "entanglement", "converged", "sweeps", "start_index",
                "n_starts", "unconverged_starts"):
        assert getattr(got, key) == ref[key], key
    for mine, theirs in zip(got.maximizer.vectors, ref["vectors"]):
        assert np.array_equal(mine, theirs)
    # every sweep computes at least one row and at most all of them
    assert got.sweeps <= got.row_sweeps <= got.sweeps * ref["n_rows"]


def _seeded_state(n_total, seed):
    man = enumerate_manifold(n_total)
    draw = np.random.default_rng(seed).standard_normal((man.dim, 2))
    amps = draw[:, 0] + 1j * draw[:, 1]
    return StateVector(man, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n_total, seed, restarts", [
    (2, 3, 64), (2, 11, 8), (4, 5, 16), (6, 7, 8),
])
def test_sweep_equals_the_all_row_loop(n_total, seed, restarts):
    state = _seeded_state(n_total, seed)
    ref = _all_row_sweep(state, restarts, seed=seed)
    _assert_equals_reference(_swept(state, restarts, seed=seed), ref)


def test_sweep_equals_the_all_row_loop_on_a_product_state():
    state = parse_init("g0|0.6:g2+0.8:e0|g0", 2)
    ref = _all_row_sweep(state, 64, seed=0)
    got = _sweep_overlap(state, 64, seed=0)
    _assert_equals_reference(got, ref)
    assert got.unconverged_starts == 0


def _mixed_states():
    """Fast and slow states on one manifold: a product state, trajectory
    states of the pair family and seeded random states."""
    fam = FAMILIES["n2_general"]
    states = [parse_init("g0|g0|g2", 2)]
    states += [fam.state_vector(fam.evaluate(1.0, t, a=0.6, b=0.8))
               for t in (0.1, math.pi / 6.0, 0.9)]
    states += [_seeded_state(2, seed) for seed in range(6)]
    return states


def test_fast_and_slow_states_each_equal_the_all_row_loop():
    states = _mixed_states()
    results = [_sweep_overlap(state, 16, seed=4) for state in states]
    sweeps = {res.sweeps for res in results}
    assert len(sweeps) > 3 and min(sweeps) * 2 < max(sweeps)
    for state, got in zip(states, results):
        _assert_equals_reference(got, _all_row_sweep(state, 16, seed=4))
    # rows that repeat themselves bit for bit leave before their state does
    n_rows = MAN2.qudit_dim ** 2 + 16
    assert any(res.row_sweeps < res.sweeps * n_rows for res in results)


def test_sweep_cutoff_reports_the_unsettled_starts(monkeypatch):
    states = _mixed_states()
    monkeypatch.setattr(entanglement, "MAX_SWEEPS", 3)
    results = [_sweep_overlap(state, 16, seed=4) for state in states]
    for state, got in zip(states, results):
        ref = _all_row_sweep(state, 16, seed=4, max_sweeps=3)
        _assert_equals_reference(got, ref)
        assert got.sweeps <= 3
    assert any(res.unconverged_starts > 0 and not res.converged for res in results)
    assert results[0].unconverged_starts == 0


def test_overlap_checks_run_before_the_sweep(monkeypatch):
    # the norm check runs before the sweep route at N >= 4 as well
    monkeypatch.setattr(entanglement, "_sweep_overlap",
                        lambda *args: pytest.fail("swept before the checks"))
    man = enumerate_manifold(4)
    with pytest.raises(ValueError, match="norm"):
        max_product_overlap(StateVector(man, 0.7 * np.eye(man.dim)[0]), seed=0)
    amps = np.eye(man.dim)[0].astype(complex)
    amps[3] = np.nan
    with pytest.raises(ValueError, match="norm"):
        max_product_overlap(StateVector(man, amps), seed=0)


def _symmetric_power_oracle(state, restarts=64, seed=0, shift=2.0, tol=1e-15,
                            max_iter=20_000):
    """Best product overlap of a relabeling-invariant state over symmetric
    product states x (x) x (x) x, by the shifted symmetric power iteration
    (Kolda & Mayo 2011) from every basis vector and `restarts` seeded random
    vectors.  x <- normalize(T(., x*, x*) + shift x) climbs Re<x x x|psi>,
    whose maximum over unit x is the best |<x x x|psi>|."""
    t = embed(state)
    d = t.shape[0]
    draw = np.random.default_rng(seed).standard_normal((restarts, d, 2))
    starts = np.concatenate([np.eye(d, dtype=complex), draw[..., 0] + 1j * draw[..., 1]])
    best = 0.0
    for x in starts:
        x = x / np.linalg.norm(x)
        value = -1.0
        for _ in range(max_iter):
            x = np.einsum("ijk,j,k->i", t, x.conj(), x.conj()) + shift * x
            x /= np.linalg.norm(x)
            new = abs(np.einsum("ijk,i,j,k->", t, x.conj(), x.conj(), x.conj()))
            if abs(new - value) <= tol:
                break
            value = new
        best = max(best, new ** 2)
    return best


@pytest.mark.parametrize("turn", [1.0, 0.5])  # c7.sym_half_turn, c7.sym_quarter_turn
def test_symmetric_states_match_the_symmetric_power_oracle(turn):
    fam = FAMILIES["n6_symmetric"]
    phase = turn * math.pi / (2.0 * math.sqrt(66.0))
    state = fam.state_vector(fam.evaluate(1.0, phase, a=1.0, b=0.0))
    t = embed(state)
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.allclose(t, t.transpose(axes), atol=1e-15)
    oracle = _symmetric_power_oracle(state)
    assert max_product_overlap(state, restarts=64, seed=0).overlap == \
        pytest.approx(oracle, abs=1e-10)


def test_maximizer_reports_its_levels():
    vec = product_state(MAN2, [[(lv("g0"), 1.0)], [(lv("e0"), 1.0)], [(lv("g0"), 1.0)]])
    result = max_product_overlap(vec, seed=0)
    assert tuple(str(MAN2.levels[int(np.argmax(np.abs(v)))])
                 for v in result.maximizer.vectors) == ("g0", "e0", "g0")


def test_seeded_sweep_is_reproducible():
    fam = FAMILIES["n4_two_cavity"]
    state = fam.state_vector(fam.evaluate(1.0, 0.19))
    first = max_product_overlap(state, restarts=8, seed=42)
    second = max_product_overlap(state, restarts=8, seed=42)
    assert first.overlap == second.overlap
    other = max_product_overlap(state, restarts=8, seed=43)
    assert other.overlap == pytest.approx(first.overlap, abs=1e-9)


# ------------------------------------------------------- exact N = 2 oracle

def _dense_n2_state(seed):
    """A dense random N = 2 state: complex normal amplitudes from `seed`,
    real parts drawn before imaginary ones (unlike `_seeded_state`), the
    states the boundary xfails below were found on."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(MAN2.dim) + 1j * rng.standard_normal(MAN2.dim)
    return StateVector(MAN2, amps / np.linalg.norm(amps))


def test_w_type_oracle_closed_form_cases():
    # a product state, an obtuse triangle, the right-angle boundary and the
    # symmetric W state (acute)
    assert w_type_overlap(1.0, 0.0, 0.0) == 1.0
    assert w_type_overlap(Fraction(1, 8), Fraction(3, 4), Fraction(1, 8)) == Fraction(3, 4)
    assert w_type_overlap(Fraction(1, 2), Fraction(1, 2), Fraction(0)) == Fraction(1, 2)
    assert w_type_overlap(*[Fraction(1, 3)] * 3) == Fraction(4, 9)


def test_sweep_never_exceeds_the_w_type_oracle():
    for seed in range(200):
        state = _dense_n2_state(seed)
        res = _sweep_overlap(state, 64, seed=0)
        assert res.overlap <= w_type_overlap(*n2_sides(state)) + 1e-12


def _random_agreement_states():
    """The 100 states of c7.random_agreement at seed 0, drawn as the suite
    does."""
    rng = np.random.default_rng(0)
    points = [(*_unit_pair(rng), float(rng.uniform(0.0, math.pi)))
              for _ in range(100)]
    return [N2.state_vector(N2.evaluate(1.0, t, a=a, b=b)) for a, b, t in points]


def _product_overlap(state, vectors):
    """|<u (x) v (x) w|psi>|^2 on the dense qudit tensor."""
    return abs(np.einsum("ijk,i,j,k->", embed(state),
                         *(x.conj() for x in vectors))) ** 2


def test_sweep_equals_the_w_type_oracle_on_the_random_agreement_states():
    misses = [abs(_sweep_overlap(state, 64, seed=0).overlap - w_type_overlap(*n2_sides(state)))
              for state in _random_agreement_states()]
    assert max(misses) <= 1e-12


def test_pair_antinode_overlap_is_64_over_135():
    # c7.pair_antinode: |A|^2 = 1/9 and |B|^2 = |C|^2 = 4/9, an acute triangle
    state = N2.state_vector(N2.evaluate(1.0, math.pi / 6, a=1.0, b=0.0))
    sides = [Fraction(4, 9), Fraction(4, 9), Fraction(1, 9)]
    assert n2_sides(state) == pytest.approx([float(x) for x in sides], abs=1e-15)
    assert w_type_overlap(*sides) == Fraction(64, 135)
    res = max_product_overlap(state, 64, seed=0)
    assert abs(res.overlap - 64 / 135) <= 1e-14
    assert abs(_product_overlap(state, res.maximizer.vectors) - 64 / 135) <= 1e-14
    assert abs(_sweep_overlap(state, 64, seed=0).overlap - 64 / 135) <= 1e-12


# Each of these states sits near the right-triangle boundary
# (|a^2 - b^2 - c^2| < 0.005), where the maximum is nearly degenerate: the
# sweep settles after 406-1423 sweeps, reports converged, and stops short of
# the oracle by 5.0e-12, 1.4e-10 and 1.7e-11.
@pytest.mark.xfail(strict=True, reason="sweep stops short near the right-triangle boundary")
@pytest.mark.parametrize("seed", [55, 146, 162])
def test_sweep_reaches_the_w_type_oracle_near_the_right_triangle_boundary(seed):
    state = _dense_n2_state(seed)
    res = _sweep_overlap(state, 64, seed=seed)
    assert abs(res.overlap - w_type_overlap(*n2_sides(state))) <= 1e-12


# --------------------------------------------------- N = 2 closed-form route

def test_closed_form_equals_the_w_type_oracle():
    states = [_dense_n2_state(seed) for seed in range(200)]
    states += _random_agreement_states()
    for state in states:
        res = max_product_overlap(state, 64, seed=0)
        assert abs(res.overlap - w_type_overlap(*n2_sides(state))) <= 1e-14
        # the maximizer contracts to the overlap it reports
        assert abs(_product_overlap(state, res.maximizer.vectors) - res.overlap) <= 1e-14
        assert (res.converged, res.sweeps, res.start_index, res.n_starts,
                res.row_sweeps, res.unconverged_starts) == (True, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("seed", [55, 146, 162])
def test_closed_form_reaches_the_w_type_oracle_near_the_right_triangle_boundary(seed):
    state = _dense_n2_state(seed)
    res = max_product_overlap(state, 64, seed=seed)
    assert abs(res.overlap - w_type_overlap(*n2_sides(state))) <= 1e-12


def _w_state(sides, phases=(0.3, -1.1, 2.0)):
    """The N = 2 state whose cavity c holds sqrt(s_c) (0.6 g2 + 0.8 e^{i phi_c} e0),
    so each direction x_c/|x_c| mixes both levels off g0."""
    amps = np.zeros(MAN2.dim, dtype=complex)
    for cav, (side, phase) in enumerate(zip(sides, phases)):
        for level, part in ((1, 0.6), (2, 0.8 * np.exp(1j * phase))):
            pos = [0, 0, 0]
            pos[cav] = level
            amps[MAN2.index_at(pos)] = math.sqrt(side) * part
    return StateVector(MAN2, amps)


@pytest.mark.parametrize("sides, big", [
    ((1 / 8, 3 / 4, 1 / 8), 1),     # obtuse
    ((1 / 2, 1 / 4, 1 / 4), 0),     # the right-angle boundary
    ((2 / 5, 0.0, 3 / 5), 2),       # one zero side
])
def test_closed_form_puts_the_largest_side_alone_on_a_non_acute_triangle(sides, big):
    state = _w_state(sides)
    res = max_product_overlap(state, seed=0)
    assert res.overlap == pytest.approx(sides[big], abs=1e-15)
    assert _product_overlap(state, res.maximizer.vectors) == pytest.approx(sides[big], abs=1e-15)
    g0 = np.eye(MAN2.qudit_dim)[0]
    for cav, vec in enumerate(res.maximizer.vectors):
        if cav == big:
            want = [0.0, 0.6, 0.8 * np.exp(1j * (0.3, -1.1, 2.0)[cav])]
            assert np.allclose(vec, want, rtol=0.0, atol=1e-15)
        else:
            assert np.array_equal(vec, g0)


def test_closed_form_exact_acute_and_product_cases():
    # the symmetric W state (acute): P = 4/9, each factor sqrt(2/3) g0 + sqrt(1/3) x_c/|x_c|
    state = _w_state([1 / 3] * 3)
    res = max_product_overlap(state, seed=0)
    assert res.overlap == pytest.approx(4 / 9, abs=1e-15)
    assert _product_overlap(state, res.maximizer.vectors) == pytest.approx(4 / 9, abs=1e-15)
    assert [abs(vec[0]) for vec in res.maximizer.vectors] == \
        pytest.approx([math.sqrt(2 / 3)] * 3, abs=1e-15)
    for init in ("g0|g0|g2", "g0|0.6:g2+0.8:e0|g0"):
        res = max_product_overlap(parse_init(init, 2), seed=0)
        assert (res.overlap, res.entanglement) == (1.0, 0.0)


def test_closed_form_ignores_restarts_and_seed():
    state = _dense_n2_state(3)
    first = max_product_overlap(state, 1, seed=0)
    for restarts, seed in ((64, 0), (MAX_RESTARTS, 99)):
        other = max_product_overlap(state, restarts, seed=seed)
        assert other.overlap == first.overlap
        for mine, theirs in zip(other.maximizer.vectors, first.maximizer.vectors):
            assert np.array_equal(mine, theirs)


def test_closed_form_route_keeps_the_fail_closed_checks(monkeypatch):
    # every argument check runs before the N = 2 route is taken
    monkeypatch.setattr(entanglement, "_w_type_overlap",
                        lambda state: pytest.fail("solved before the checks"))
    state = StateVector(MAN2, np.eye(6)[0])
    nan = np.eye(6)[0].astype(complex)
    nan[3] = np.nan
    for kwargs, match in [
        (dict(state=state, seed=None), "seed"),
        (dict(state=state, restarts=0, seed=0), "restarts must be"),
        (dict(state=state, restarts=MAX_RESTARTS + 1, seed=0), "restarts must be"),
        (dict(state=state, restarts=True, seed=0), "restarts must be"),
        (dict(state=StateVector(MAN2, 0.7 * np.eye(6)[0]), seed=0), "norm"),
        (dict(state=StateVector(MAN2, nan), seed=0), "norm"),
    ]:
        with pytest.raises(ValueError, match=match):
            max_product_overlap(**kwargs)


# ------------------------------------------------------ initial-overlap route

def test_initial_overlaps_read_the_third_cavity_half_step(monkeypatch):
    # each start's initial overlap is its w against the w half-step from its
    # (u, v); the u half-step from (v, w) agrees only up to rounding
    calls = []

    def record(*args):
        calls.append(args)
        return _half_step(*args)

    monkeypatch.setattr(entanglement, "_half_step", record)
    man = enumerate_manifold(4)
    state = _seeded_state(4, 0)
    restarts, seed = 3, 7
    max_product_overlap(state, restarts, seed=seed)
    a, others, starts, x, y = calls[0]
    orders, want_others, want_starts = _cavity_runs(man.coords, man.qudit_dim)
    u0, v0, _ = _starts(man.qudit_dim, restarts, seed)
    assert np.array_equal(others, want_others[2])
    assert np.array_equal(starts, want_starts[2])
    # the state's amplitudes in the third cavity's run order, one row that
    # broadcasts over every start of the start table
    assert a.shape == (1, man.dim)
    assert np.array_equal(a[0], state.amplitudes[orders[2]])
    assert np.array_equal(x, u0)
    assert np.array_equal(y, v0)


# ------------------------------------------------------ the suite's sweeps

def test_the_suites_sweeps_keep_their_diagnostics(monkeypatch):
    # the five N >= 4 c7 states at seed 0, pinned to the bit: no verify row
    # prints `row_sweeps`, so this is the check on when rows leave the sweep
    swept = []

    def record(state, restarts, seed):
        res = _sweep_overlap(state, restarts, seed)
        swept.append(res)
        return res

    monkeypatch.setattr(entanglement, "_sweep_overlap", record)
    verification._entanglement(0, verification._extrema()[1])
    # (sweeps, row_sweeps, start_index, unconverged_starts, overlap bits)
    assert [(res.sweeps, res.row_sweeps, res.start_index, res.unconverged_starts,
             res.overlap.hex()) for res in swept] == [
        (18, 1214, 130, 0, "0x1.6d793abf7dc16p-2"),   # single_cavity_min
        (43, 2879, 180, 0, "0x1.544b90d5d922ap-2"),   # two_cavity_min
        (243, 15680, 371, 0, "0x1.e03415ac2a109p-3"),  # concentrated_min
        (17, 1187, 353, 0, "0x1.c3599092b04f5p-2"),   # sym_half_turn
        (17, 1192, 389, 0, "0x1.022bb7cb63a83p-2"),   # sym_quarter_turn
    ]
    assert all(res.converged for res in swept)


def test_every_suite_overlap_goes_through_the_public_function(monkeypatch):
    # perfbench's tracer keys the entanglement layer rows on
    # `max_product_overlap`; a batched path beside it would hide its work
    calls = []

    def record(state, *args, **kwargs):
        calls.append(state.manifold.n_total)
        return max_product_overlap(state, *args, **kwargs)

    for module in (entanglement, verification):
        monkeypatch.setattr(module, "max_product_overlap", record)
    verification.run_suite("paper", 0)
    # pair_antinode and the 100 random_agreement states at N = 2, then the
    # two N = 4 minima and the three N = 6 cases
    assert len(calls) == 106
    assert sum(n == 2 for n in calls) == 101
    assert sorted(n for n in calls if n > 2) == [4, 4, 6, 6, 6]
