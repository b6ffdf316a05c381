"""Exact time evolution by spectral decomposition.

The manifolds are small (dimension <= 38), so the propagator is always the
exact exp(-i M t) built from one Hermitian eigendecomposition; there is no
step-based integration and no accumulation of local error.  Frequencies are
reported in the same dimensionless units as the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Manifold, StateVector
from .dynamics import Block, Generator


class NumericalContractError(ArithmeticError):
    """An exact-arithmetic guarantee (norm or Hermiticity) was violated."""


NORM_TOL = 1e-10


def _matrix_of(generator) -> np.ndarray:
    if isinstance(generator, np.ndarray):
        return generator
    return generator.matrix


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition M = V diag(frequencies) V^dag of a generator."""

    frequencies: np.ndarray
    modes: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.frequencies)


def spectrum(generator: Generator | Block | np.ndarray) -> Spectrum:
    """Eigenfrequencies (ascending) and orthonormal modes of a generator."""
    mat = _matrix_of(generator)
    freqs, modes = np.linalg.eigh(mat)
    return Spectrum(frequencies=freqs, modes=modes)


def _evolve(generator: Generator | Block, initial: np.ndarray,
            times: np.ndarray) -> np.ndarray:
    """Rows exp(-i M t) @ initial, one per entry of times."""
    spec = spectrum(generator)
    coeffs = spec.modes.conj().T @ initial
    # one (times, modes) buffer, updated in place: same values as
    # exp(-i f t) * c built from temporaries, one dense array fewer at peak
    osc = -1j * times[:, None] * spec.frequencies[None, :]
    np.exp(osc, out=osc)
    osc *= coeffs[None, :]
    return osc @ spec.modes.T


def _modes(generator: Generator | Block | np.ndarray,
           initial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and (mode, row) weights of the solution x(t) of
    i dx/dt = M x with x(0) = initial: x(t) = sum_f weights[f] exp(-i f t)."""
    spec = spectrum(generator)
    weights = spec.modes * (spec.modes.conj().T @ initial)[None, :]
    return spec.frequencies, weights.T


def _merge_modes(freqs: np.ndarray, coeffs: np.ndarray,
                 tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficient rows of modes whose frequencies agree within tol.

    Returns ascending frequencies (each group keeps its lowest) and the
    summed (mode, label) coefficients, without modes that vanish to 1e-14.
    A non-finite frequency or coefficient raises ValueError.
    """
    if not (np.isfinite(freqs).all() and np.isfinite(coeffs).all()):
        raise ValueError("mode frequencies and coefficients must be finite")
    order = np.argsort(freqs)
    freqs, coeffs = freqs[order], coeffs[order]
    out_f: list[float] = []
    out_c: list[np.ndarray] = []
    for f, c in zip(freqs, coeffs):
        if out_f and abs(f - out_f[-1]) <= tol:
            out_c[-1] = out_c[-1] + c
        else:
            out_f.append(float(f))
            out_c.append(c.astype(complex))
    keep = [k for k, c in enumerate(out_c) if np.abs(c).max() > 1e-14]
    if not keep:
        return np.zeros(0), np.zeros((0, coeffs.shape[1]), dtype=complex)
    return np.array([out_f[k] for k in keep]), np.array([out_c[k] for k in keep])


def eigenfrequencies(generator: Generator | Block | np.ndarray) -> np.ndarray:
    """Sorted eigenfrequencies of a generator or block."""
    return spectrum(generator).frequencies


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitudes sampled along an exact evolution."""

    manifold: Manifold
    generator: Generator
    times: np.ndarray
    times_are_phase: bool
    amplitudes: np.ndarray

    @property
    def n_times(self) -> int:
        return len(self.times)

    def state(self, k: int) -> StateVector:
        return StateVector(self.manifold, self.amplitudes[k])

    def phases(self) -> np.ndarray:
        """Times expressed as the dimensionless product xi*t."""
        if self.times_are_phase:
            return self.times
        return self.times * self.generator.xi


def propagate(generator: Generator, initial: StateVector, times,
              times_are_phase: bool = False) -> Trajectory:
    """Evolve an initial state to the given times, exactly.

    times are physical (in the generator's time unit) unless
    times_are_phase is set, in which case they are read as xi*t and the
    hopping strength drops out of the large-hopping dynamics entirely.

    Raises NumericalContractError if any evolved norm drifts beyond 1e-10.
    """
    if initial.manifold is not generator.manifold:
        raise ValueError("initial state lives on a different manifold")
    if not abs(initial.norm - 1.0) <= 1e-9:
        raise ValueError(f"initial state is not normalized: |psi| = {initial.norm!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times_are_phase and generator.xi == 0:
        raise ValueError("phase times xi*t cannot be read back as times when xi == 0")
    # The generator matrix carries the factor of xi itself, so exp(-i M t)
    # wants physical times; phase inputs xi*t are divided back down.
    scaled = times / generator.xi if times_are_phase else times
    amplitudes = _evolve(generator, initial.amplitudes, scaled)
    norms = np.linalg.norm(amplitudes, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if not worst <= NORM_TOL:
        raise NumericalContractError(f"norm drifted by {worst:.3e} during evolution")
    return Trajectory(manifold=generator.manifold, generator=generator,
                      times=times, times_are_phase=times_are_phase,
                      amplitudes=amplitudes)


def evolve_block(block: Block, initial: np.ndarray, phases) -> np.ndarray:
    """Evolve block coordinates through exp(-i M_block * phase)."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    return _evolve(block, np.asarray(initial, dtype=complex), phases)


def sector_probabilities(trajectory: Trajectory, by: str = "count") -> dict:
    """Total probability per excitation sector along a trajectory.

    by='count' groups basis states by how many atoms are excited (the four
    sectors); by='pattern' groups by which cavities are excited, the finer
    partition that the pair exchange also conserves.
    """
    man = trajectory.manifold
    probs = np.abs(trajectory.amplitudes) ** 2
    if by == "count":
        return {
            k: probs[:, idx].sum(axis=1)
            for k, idx in enumerate(man.sectors)
            if idx
        }
    if by == "pattern":
        groups: dict = {}
        for i, b in enumerate(man.basis):
            pattern = tuple(c + 1 for c, lv in enumerate(b.levels) if lv.excited)
            groups.setdefault(pattern, []).append(i)
        return {pat: probs[:, idx].sum(axis=1) for pat, idx in sorted(groups.items())}
    raise ValueError(f"by must be 'count' or 'pattern', got {by!r}")


def mode_expansion(generator: Generator | Block | np.ndarray,
                   initial: np.ndarray) -> list[list[tuple[complex, float]]]:
    """Exact exponential-sum form of every amplitude.

    Returns, for each row index i, the list of (coefficient, mu) pairs such
    that amplitude_i(phase) = sum coef * exp(1i * mu * phase).  mu = -freq,
    matching the sign convention of the closed-form families.  Modes with
    negligible coefficient are dropped; degenerate frequencies are merged.
    A non-finite initial state raises ValueError.
    """
    freqs, weights = _modes(generator, np.asarray(initial, dtype=complex))
    weights[np.abs(weights) < 1e-14] = 0.0
    freqs, weights = _merge_modes(freqs, weights)
    return [[(complex(c), -float(f)) for f, c in zip(freqs, row) if abs(c) > 1e-14]
            for row in weights.T]
