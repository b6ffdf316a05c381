"""Exact evolution: spectra, trajectories, mode expansions.

Properties run under the derandomized hypothesis profile loaded in
conftest.py, so every run draws the same examples.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimodal.basis import StateVector, enumerate_manifold
from trimodal.dressed import DressedParams
from trimodal.dynamics import (
    Block,
    build_full_generator,
    build_large_xi_generator,
    sector_block,
)
from trimodal.evolve import (
    NumericalContractError,
    Trajectory,
    _merge_modes,
    _modes,
    _phase_table,
    mode_expansion,
    propagate,
    sector_probabilities,
    spectrum,
)

from references import (
    dense_evolution,
    dense_spectrum,
    pairwise_term_lists,
    unique_pattern_probabilities,
)

MAN2 = enumerate_manifold(2)
MAN6 = enumerate_manifold(6)


def corner_state(manifold):
    return StateVector(manifold, np.eye(manifold.dim)[0])


def test_spectrum_is_an_eigendecomposition():
    for gen in _drawn_generators(MAN6, xi=2.0, r=1.0, delta=0.0):
        spec = spectrum(gen)
        assert spec.blocks is gen.blocks
        for rows, freqs, modes in zip(spec.blocks, spec.frequencies, spec.modes):
            assert np.all(np.diff(freqs) >= 0)
            assert np.allclose(modes @ np.diag(freqs) @ modes.T, gen.matrix[rows][:, rows])
            assert np.allclose(modes.T @ modes, np.eye(len(freqs)))
        assert np.allclose(np.sort(np.concatenate(spec.frequencies)),
                           np.linalg.eigvalsh(gen.matrix))


@pytest.mark.parametrize("mat", [
    np.array([[1.0, 2.0], [0.0, 1.0]]),          # one triangle only
    np.array([[1.0, 1j], [1j, 1.0]]),            # symmetric, not Hermitian
    np.array([[1.0, math.nan], [math.nan, 1.0]]),
    np.array([[1.0, math.inf], [math.inf, 1.0]]),
    np.array([[1.0, math.inf], [0.0, 1.0]]),     # passes a relative test alone
    np.ones((2, 3)),
], ids=["triangle", "complex-symmetric", "nan", "inf", "one-inf", "not-square"])
def test_spectrum_fails_closed_on_a_raw_matrix_or_block(mat):
    with pytest.raises(ValueError):
        spectrum(mat)
    block = sector_block(build_large_xi_generator(MAN2), 0)
    with pytest.raises(ValueError):
        spectrum(Block(matrix=mat, embedding=block.embedding, manifold=MAN2))
    with pytest.raises(ValueError):
        mode_expansion(mat, np.ones(mat.shape[1]) / math.sqrt(mat.shape[1]))


def test_propagate_preserves_norm_and_inner_products():
    gen = build_full_generator(MAN6, DressedParams(r=1.0), xi=5.0)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, MAN6.dim)) + 1j * rng.normal(size=(2, MAN6.dim))
    u = StateVector(MAN6, a[0] / np.linalg.norm(a[0]))
    v = StateVector(MAN6, a[1] / np.linalg.norm(a[1]))
    times = np.linspace(0.0, 40.0, 101)
    tu, tv = propagate(gen, u, times), propagate(gen, v, times)
    norms = np.linalg.norm(tu.amplitudes, axis=1)
    # the trajectory carries the worst drift propagate measured
    assert tu.norm_drift == float(np.max(np.abs(norms - 1.0)))
    assert tu.norm_drift < 1e-10
    ips = np.sum(tu.amplitudes.conj() * tv.amplitudes, axis=1)
    assert np.max(np.abs(ips - np.vdot(u.amplitudes, v.amplitudes))) < 1e-9


def test_propagate_phase_times_drop_the_rate():
    phases = np.linspace(0.0, math.pi, 7)
    slow = propagate(build_large_xi_generator(MAN2, xi=1.0), corner_state(MAN2),
                     phases, times_are_phase=True)
    fast = propagate(build_large_xi_generator(MAN2, xi=50.0), corner_state(MAN2),
                     phases, times_are_phase=True)
    assert np.allclose(slow.amplitudes, fast.amplitudes)
    assert np.array_equal(slow.times, phases)


def test_phases_scale_physical_times():
    gen = build_large_xi_generator(MAN2, xi=2.0)
    traj = propagate(gen, corner_state(MAN2), [0.0, 0.25])
    same = propagate(gen, corner_state(MAN2), [0.5], times_are_phase=True)
    assert np.allclose(traj.amplitudes[1], same.amplitudes[0])


def test_propagate_input_validation():
    gen = build_large_xi_generator(MAN2)
    with pytest.raises(ValueError):
        propagate(gen, corner_state(MAN6), [0.0])
    with pytest.raises(ValueError):
        propagate(gen, StateVector(MAN2, 0.5 * np.eye(6)[0]), [0.0])


def test_initial_norm_check_fails_closed_on_nan():
    amps = np.eye(MAN2.dim, dtype=complex)[0]
    amps[1] = np.nan
    with pytest.raises(ValueError, match="not normalized"):
        propagate(build_large_xi_generator(MAN2), StateVector(MAN2, amps), [0.0])


def test_propagate_equals_the_formula_built_from_temporaries():
    # the evolution body updates one (modes, times) buffer in place and
    # multiplies it by the real modes as a float (re, im) matrix; the rows
    # must keep the bits of that formula written with fresh temporaries
    gen = build_full_generator(MAN6, DressedParams(r=1.3, delta=0.2), xi=3.0)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=MAN6.dim) + 1j * rng.normal(size=MAN6.dim)
    x0 = StateVector(MAN6, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, 2.3, 301)
    # the full generator is one block: the whole basis
    [freqs], [modes] = spectrum(gen).frequencies, spectrum(gen).modes
    assert modes.dtype == np.float64
    coeffs = modes.T @ x0.amplitudes
    osc = np.exp((-1j * times)[None, :] * freqs[:, None]) * coeffs[:, None]
    reference = (modes @ osc.view(float)).view(complex).T
    assert np.array_equal(propagate(gen, x0, times).amplitudes, reference)


def _bits(table):
    return np.ascontiguousarray(table).view(np.int64)


@pytest.mark.parametrize("a_shape", [(7,), (3, 5)], ids=["1-D", "2-D"])
def test_phase_table_has_the_bits_of_the_outer_product_formula(a_shape):
    rng = np.random.default_rng(8)
    a = 40.0 * rng.standard_normal(a_shape)
    b = 9.0 * rng.standard_normal(11)
    reference = np.exp(-1j * np.multiply.outer(a, b))
    table = _phase_table(a, b)
    assert table.shape == a_shape + (11,)
    assert np.array_equal(_bits(table), _bits(reference))
    if a.ndim == 1:
        assert np.array_equal(_bits(_phase_table(b, a).T), _bits(reference))


def test_phase_table_takes_a_scalar():
    a = np.random.default_rng(9).standard_normal((4, 4))
    table = _phase_table(a, 0.5)
    assert table.shape == (4, 4)
    assert np.array_equal(_bits(table), _bits(np.exp(-0.5j * a)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("first", [True, False], ids=["a", "b"])
def test_phase_table_refuses_non_finite_entries(bad, first):
    good, worse = np.array([0.0, 1.5]), np.array([0.5, bad])
    with pytest.raises(ValueError, match="phases must be finite"):
        _phase_table(*((worse, good) if first else (good, worse)))


def test_propagate_rejects_phase_times_at_zero_xi():
    gen = build_large_xi_generator(MAN2, xi=0.0)
    with pytest.raises(ValueError, match="xi == 0"):
        propagate(gen, corner_state(MAN2), [0.5], times_are_phase=True)
    still = propagate(gen, corner_state(MAN2), [0.5])
    assert np.allclose(still.amplitudes[0], np.eye(MAN2.dim)[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("phase", [False, True])
def test_propagate_rejects_non_finite_times(bad, phase):
    with pytest.raises(ValueError, match="finite"):
        propagate(build_large_xi_generator(MAN2), corner_state(MAN2), [0.0, bad],
                  times_are_phase=phase)


@pytest.mark.parametrize("times", [[], np.zeros((2, 3))], ids=["empty", "2-D"])
def test_propagate_rejects_times_that_are_not_a_non_empty_1d_sequence(times):
    # refused up front: numpy alone fails on these with a zero-size reduction
    # or a broadcast error that does not name `times`
    with pytest.raises(ValueError, match="times must be"):
        propagate(build_large_xi_generator(MAN2), corner_state(MAN2), times)


def test_propagate_accepts_a_scalar_time():
    gen = build_large_xi_generator(MAN2, xi=2.0)
    traj = propagate(gen, corner_state(MAN2), 0.25)
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.amplitudes, propagate(gen, corner_state(MAN2), [0.25]).amplitudes)


def test_norm_contract_fails_closed_on_nan():
    # a finite time whose product with a frequency overflows gives NaN rows
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(NumericalContractError):
        propagate(build_large_xi_generator(MAN2), corner_state(MAN2), [1e308])


def _drawn_generators(man, xi, r, delta):
    return (build_large_xi_generator(man, xi),
            build_full_generator(man, DressedParams(r=r, delta=delta), xi))


def _drawn_state(man, seed):
    draw = np.random.default_rng(seed).standard_normal((man.dim, 2))
    amps = draw[:, 0] + 1j * draw[:, 1]
    return StateVector(man, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n_total", [2, 4, 6])
@settings(max_examples=15)
@given(xi=st.floats(-10.0, 10.0), r=st.floats(0.05, 20.0),
       delta=st.floats(-10.0, 10.0), seed=st.integers(0, 2**32 - 1),
       t1=st.floats(-10.0, 10.0), t2=st.floats(-10.0, 10.0))
def test_propagation_keeps_the_norm_and_the_group_law(n_total, xi, r, delta,
                                                      seed, t1, t2):
    man = enumerate_manifold(n_total)
    x = _drawn_state(man, seed)
    for gen in _drawn_generators(man, xi, r, delta):
        traj = propagate(gen, x, [t1, t1 + t2])
        assert np.all(np.abs(np.linalg.norm(traj.amplitudes, axis=1) - 1.0)
                      <= 1e-10)
        # U(t2) U(t1) x == U(t1 + t2) x
        again = propagate(gen, traj.state(0), [t2]).amplitudes[0]
        assert np.max(np.abs(again - traj.amplitudes[1])) <= 1e-10


@pytest.mark.parametrize("n_total", [2, 4, 6, 8, 10])
def test_real_storage_matches_the_complex_solve(n_total):
    # the real eigh and the real GEMM of propagate against the complex
    # route the generators took before they were stored real
    man = enumerate_manifold(n_total)
    rng = np.random.default_rng(n_total)
    for gen in _drawn_generators(man, xi=1.3, r=0.8, delta=0.4):
        assert gen.matrix.dtype == np.float64
        ref_f, ref_v = np.linalg.eigh(gen.matrix.astype(complex))
        scale = np.linalg.norm(gen.matrix, 2)
        spec = spectrum(gen)
        assert all(modes.dtype == np.float64 for modes in spec.modes)
        freqs = np.sort(np.concatenate(spec.frequencies))
        assert np.max(np.abs(freqs - ref_f)) <= 1e-12 * scale
        for seed in rng.integers(0, 2**32, size=3):
            x0 = _drawn_state(man, seed)
            times = rng.uniform(-3.0, 3.0, size=7)
            ref = (np.exp(-1j * times[:, None] * ref_f[None, :])
                   * (ref_v.conj().T @ x0.amplitudes)[None, :]) @ ref_v.T
            got = propagate(gen, x0, times).amplitudes
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_trajectory_state_accessor():
    gen = build_large_xi_generator(MAN2)
    traj = propagate(gen, corner_state(MAN2), np.linspace(0.0, 1.0, 5))
    st = traj.state(3)
    assert isinstance(st, StateVector)
    assert np.allclose(st.amplitudes, traj.amplitudes[3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolution_rejects_a_non_finite_initial_vector(bad):
    gen = build_large_xi_generator(MAN6)
    amps = np.eye(MAN6.dim, dtype=complex)[0]
    amps[1] = bad
    with pytest.raises(ValueError, match="not normalized"):
        propagate(gen, StateVector(MAN6, amps), [0.0, 0.1])


def test_sector_probabilities_are_conserved_without_sidebands():
    gen = build_large_xi_generator(MAN6)
    rng = np.random.default_rng(5)
    a = rng.normal(size=MAN6.dim) + 1j * rng.normal(size=MAN6.dim)
    traj = propagate(gen, StateVector(MAN6, a / np.linalg.norm(a)),
                     np.linspace(0.0, 3.0, 40), times_are_phase=True)
    by_count = sector_probabilities(traj, by="count")
    assert set(by_count) == {0, 1, 2, 3}
    for series in by_count.values():
        assert np.max(np.abs(series - series[0])) < 1e-10
    total = sum(series for series in by_count.values())
    assert np.allclose(total, 1.0)


def test_sector_probabilities_pattern_refinement():
    gen = build_large_xi_generator(MAN2)
    traj = propagate(gen, corner_state(MAN2), [0.0, 0.3], times_are_phase=True)
    by_pattern = sector_probabilities(traj, by="pattern")
    assert set(by_pattern) == {(), (1,), (2,), (3,)}
    assert np.allclose(by_pattern[()], 1.0)  # started in the photon sector
    with pytest.raises(ValueError):
        sector_probabilities(traj, by="sector")


@pytest.mark.parametrize("n_total", [0, 2, 6, 8])
def test_sector_probabilities_pattern_matches_the_per_state_grouping(n_total):
    man = enumerate_manifold(n_total)
    gen = build_full_generator(man, DressedParams(r=0.7, delta=0.2)) if n_total \
        else build_large_xi_generator(man)
    traj = propagate(gen, _drawn_state(man, n_total), [0.0, 0.4, 1.3])
    groups = {}
    for i, b in enumerate(man.basis):
        pattern = tuple(c + 1 for c, lv in enumerate(b.levels) if lv.excited)
        groups.setdefault(pattern, []).append(i)
    probs = np.abs(traj.amplitudes) ** 2
    expected = {pat: probs[:, idx].sum(axis=1)
                for pat, idx in sorted(groups.items())}
    got = sector_probabilities(traj, by="pattern")
    # the same keys, order and bits as grouping by np.unique over flag rows
    unique = unique_pattern_probabilities(traj)
    assert list(got) == list(expected) == list(unique)
    assert all(type(c) is int for pat in got for c in pat)
    for pat, series in expected.items():
        assert np.array_equal(got[pat], series)
        assert np.array_equal(got[pat], unique[pat])


def test_mode_expansion_exchange_example():
    # starting on one corner of the exchange triangle:
    # amplitude = (1/3) e^{-i 4 phi} + (2/3) e^{+i 2 phi}
    gen = build_large_xi_generator(MAN2)
    terms = mode_expansion(gen, np.eye(6)[0])[0]
    terms = sorted(((c, mu) for c, mu in terms), key=lambda t: t[1])
    assert len(terms) == 2
    (c_fast, mu_fast), (c_slow, mu_slow) = terms
    assert mu_fast == pytest.approx(-4.0)
    assert c_fast == pytest.approx(1.0 / 3.0)
    assert mu_slow == pytest.approx(2.0)
    assert c_slow == pytest.approx(2.0 / 3.0)


def test_mode_expansion_reconstructs_propagation():
    gen = build_full_generator(MAN2, DressedParams(r=1.0), xi=1.0)
    init = np.eye(6)[0]
    expansion = mode_expansion(gen, init)
    phases = np.linspace(0.0, 4.0, 11)
    traj = propagate(gen, StateVector(MAN2, init), phases, times_are_phase=True)
    rebuilt = np.zeros((len(phases), 6), dtype=complex)
    for i, terms in enumerate(expansion):
        for c, mu in terms:
            rebuilt[:, i] += c * np.exp(1j * mu * phases)
    assert np.max(np.abs(rebuilt - traj.amplitudes)) < 1e-12


def test_mode_expansion_fails_closed_on_nan():
    init = np.zeros(6, dtype=complex)
    init[0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        mode_expansion(build_large_xi_generator(MAN2), init)


def _per_row_expansion(generator, initial):
    """Per-row loop over the dense spectrum of the whole generator: drop
    terms below 1e-14, merge frequencies within 1e-9."""
    freqs, modes = dense_spectrum(generator.matrix)
    weights = modes * (modes.conj().T @ initial)[None, :]
    out = []
    for row in weights:
        terms = []
        for c, f in zip(row, freqs):
            if abs(c) < 1e-14:
                continue
            for t, (c0, mu0) in enumerate(terms):
                if abs(mu0 + f) < 1e-9:
                    terms[t] = (c0 + c, mu0)
                    break
            else:
                terms.append((complex(c), -float(f)))
        out.append([(c, mu) for c, mu in terms if abs(c) > 1e-14])
    return out


@pytest.mark.parametrize("n_total", [6, 10])
def test_mode_expansion_matches_the_per_row_loop(n_total):
    man = enumerate_manifold(n_total)
    rng = np.random.default_rng(n_total)
    init = rng.normal(size=man.dim) + 1j * rng.normal(size=man.dim)
    init /= np.linalg.norm(init)
    gen = build_large_xi_generator(man)   # highly degenerate spectrum
    got, ref = mode_expansion(gen, init), _per_row_expansion(gen, init)
    assert [len(row) for row in got] == [len(row) for row in ref]
    for row, ref_row in zip(got, ref):
        for (c, mu), (c_ref, mu_ref) in zip(row, ref_row):
            assert abs(c - c_ref) <= 1e-14 and abs(mu - mu_ref) < 1e-9


@pytest.mark.parametrize("n_total", [2, 4, 6, 8, 10])
def test_block_spectrum_equals_the_dense_eigh(n_total):
    man = enumerate_manifold(n_total)
    for gen in _drawn_generators(man, xi=1.7, r=0.6, delta=-0.3):
        spec = spectrum(gen)
        ref_f, _ = dense_spectrum(gen.matrix)
        scale = max(1.0, np.linalg.norm(gen.matrix, 2))
        freqs = np.sort(np.concatenate(spec.frequencies))
        assert np.max(np.abs(freqs - ref_f)) <= 1e-12 * scale
        covered = np.zeros(man.dim, dtype=int)
        for rows, f, modes in zip(spec.blocks, spec.frequencies, spec.modes):
            covered[rows] += 1
            # each block's modes are eigenvectors of the whole matrix
            cols = np.zeros((man.dim, len(f)))
            cols[rows] = modes
            assert np.max(np.abs(gen.matrix @ cols - cols * f), initial=0.0) \
                <= 1e-12 * scale
        assert np.all(covered == 1)


def _two_pattern_start(man, seed):
    """A random start on the basis states of the patterns (1,) and (2, 3)."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(man.dim, dtype=complex)
    rows = np.concatenate([man.patterns[(1,)], man.patterns[(2, 3)]])
    amps[rows] = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return StateVector(man, amps / np.linalg.norm(amps)), rows


@pytest.mark.parametrize("n_total", [4, 6, 10])
def test_propagate_matches_the_dense_route_and_skips_untouched_blocks(n_total):
    man = enumerate_manifold(n_total)
    x0, rows = _two_pattern_start(man, n_total)
    times = np.linspace(-2.0, 3.0, 41)
    large, full = _drawn_generators(man, xi=1.3, r=0.9, delta=0.2)
    for gen in (large, full):
        got = propagate(gen, x0, times).amplitudes
        ref = dense_evolution(gen.matrix, x0.amplitudes, times)
        assert np.max(np.abs(got - ref)) <= 1e-12
    # the large-hopping evolution never leaves the two patterns it starts on
    untouched = np.setdiff1d(np.arange(man.dim), rows)
    assert np.all(propagate(large, x0, times).amplitudes[:, untouched] == 0)


def test_full_propagation_holds_at_most_two_tables():
    # the one-block GEMM writes straight into its output rows: the exp
    # table and the output are the only (dim, times) tables alive at once
    man = enumerate_manifold(20)
    gen = build_full_generator(man, DressedParams(r=1.1, delta=0.3))
    x0 = _drawn_state(man, 20)
    times = np.linspace(0.0, 2.0, 2001)
    table = man.dim * times.size * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        propagate(gen, x0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table


@pytest.mark.parametrize("n_total", [6, 10, 14])
def test_mode_expansion_terms_equal_the_pairwise_lists(n_total):
    man = enumerate_manifold(n_total)
    gen = build_large_xi_generator(man)
    starts = [_drawn_state(man, n_total).amplitudes,
              _two_pattern_start(man, n_total)[0].amplitudes]
    for init in starts:
        freqs, weights = _modes(spectrum(gen), init)
        weights[np.abs(weights) < 1e-14] = 0.0
        ref = pairwise_term_lists(*_merge_modes(freqs, weights))
        got = mode_expansion(gen, init)
        assert got == ref
        assert any(got)
