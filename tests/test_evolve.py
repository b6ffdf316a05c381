"""Exact evolution: spectra, trajectories, block evolution, mode expansions."""

import math

import numpy as np
import pytest

from trimodal.basis import StateVector, enumerate_manifold
from trimodal.dressed import DressedParams
from trimodal.dynamics import build_full_generator, build_large_xi_generator, sector_block
from trimodal.evolve import (
    NumericalContractError,
    Trajectory,
    eigenfrequencies,
    evolve_block,
    mode_expansion,
    propagate,
    sector_probabilities,
    spectrum,
)

MAN2 = enumerate_manifold(2)
MAN6 = enumerate_manifold(6)


def corner_state(manifold):
    return StateVector(manifold, np.eye(manifold.dim)[0])


def test_spectrum_is_an_eigendecomposition():
    gen = build_full_generator(MAN6, DressedParams(r=1.0), xi=2.0)
    spec = spectrum(gen)
    assert np.all(np.diff(spec.frequencies) >= 0)
    assert np.allclose(spec.modes @ np.diag(spec.frequencies) @ spec.modes.conj().T,
                       gen.matrix)
    assert np.allclose(spec.modes.conj().T @ spec.modes, np.eye(spec.dim))
    assert np.allclose(eigenfrequencies(gen), np.linalg.eigvalsh(gen.matrix))


def test_propagate_preserves_norm_and_inner_products():
    gen = build_full_generator(MAN6, DressedParams(r=1.0), xi=5.0)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, MAN6.dim)) + 1j * rng.normal(size=(2, MAN6.dim))
    u = StateVector(MAN6, a[0] / np.linalg.norm(a[0]))
    v = StateVector(MAN6, a[1] / np.linalg.norm(a[1]))
    times = np.linspace(0.0, 40.0, 101)
    tu, tv = propagate(gen, u, times), propagate(gen, v, times)
    norms = np.linalg.norm(tu.amplitudes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    ips = np.sum(tu.amplitudes.conj() * tv.amplitudes, axis=1)
    assert np.max(np.abs(ips - u.overlap(v))) < 1e-9


def test_propagate_phase_times_drop_the_rate():
    phases = np.linspace(0.0, math.pi, 7)
    slow = propagate(build_large_xi_generator(MAN2, xi=1.0), corner_state(MAN2),
                     phases, times_are_phase=True)
    fast = propagate(build_large_xi_generator(MAN2, xi=50.0), corner_state(MAN2),
                     phases, times_are_phase=True)
    assert np.allclose(slow.amplitudes, fast.amplitudes)
    assert np.allclose(slow.phases(), phases)


def test_phases_scale_physical_times():
    gen = build_large_xi_generator(MAN2, xi=2.0)
    traj = propagate(gen, corner_state(MAN2), [0.0, 0.25])
    assert np.allclose(traj.phases(), [0.0, 0.5])
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
    # the evolution body updates one buffer in place; the rows must keep the
    # bits of exp(-i f t) * c @ V^T written with fresh temporaries
    gen = build_full_generator(MAN6, DressedParams(r=1.3, delta=0.2), xi=3.0)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=MAN6.dim) + 1j * rng.normal(size=MAN6.dim)
    x0 = StateVector(MAN6, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, 2.3, 301)
    spec = spectrum(gen)
    coeffs = spec.modes.conj().T @ x0.amplitudes
    reference = (np.exp(-1j * times[:, None] * spec.frequencies[None, :])
                 * coeffs[None, :]) @ spec.modes.T
    assert np.array_equal(propagate(gen, x0, times).amplitudes, reference)


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


def test_norm_contract_fails_closed_on_nan():
    # a finite time whose product with a frequency overflows gives NaN rows
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(NumericalContractError):
        propagate(build_large_xi_generator(MAN2), corner_state(MAN2), [1e308])


def test_trajectory_state_accessor():
    gen = build_large_xi_generator(MAN2)
    traj = propagate(gen, corner_state(MAN2), np.linspace(0.0, 1.0, 5))
    assert traj.n_times == 5
    st = traj.state(3)
    assert isinstance(st, StateVector)
    assert np.allclose(st.amplitudes, traj.amplitudes[3])


def test_evolve_block_matches_full_propagation():
    gen = build_large_xi_generator(MAN6, xi=1.0)
    block = sector_block(gen, 0)
    x0 = np.zeros(block.dim, dtype=complex)
    x0[0] = 1.0
    phases = np.linspace(0.0, 2.0, 9)
    inside = evolve_block(block, x0, phases)
    full = propagate(gen, StateVector(MAN6, block.embedding @ x0), phases,
                     times_are_phase=True)
    assert np.max(np.abs(inside @ block.embedding.T - full.amplitudes)) < 1e-12


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
    """Per-row loop: drop terms below 1e-14, merge frequencies within 1e-9."""
    spec = spectrum(generator)
    weights = spec.modes * (spec.modes.conj().T @ initial)[None, :]
    out = []
    for row in weights:
        terms = []
        for c, f in zip(row, spec.frequencies):
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
