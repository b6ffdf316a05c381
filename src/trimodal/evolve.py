"""Exact time evolution by spectral decomposition.

The generators are real symmetric and small (dimension 38 at N = 6, 402 at
N = 20), so the propagator is always the exact exp(-i M t) built from a real
eigendecomposition M = V diag(f) V^T of each invariant block of M (the 8
excitation patterns of the large-hopping generator, the whole basis for the
full one); there is no step-based integration and no accumulation of local
error.  A block on which the initial state is exactly zero is skipped: its
rows stay exactly 0.  Frequencies are reported in the same dimensionless
units as the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Manifold, StateVector
from .dynamics import Block, Generator, _require_hermitian


class NumericalContractError(ArithmeticError):
    """An exact-arithmetic guarantee (norm or Hermiticity) was violated."""


NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a generator, one invariant block at a time: on
    the basis rows `blocks[k]` (an index array or a slice),
    M = modes[k] diag(frequencies[k]) modes[k]^dag, and M is zero between
    blocks."""

    blocks: tuple
    frequencies: tuple[np.ndarray, ...]
    modes: tuple[np.ndarray, ...]


def spectrum(generator: Generator | Block | np.ndarray) -> Spectrum:
    """Eigenfrequencies (ascending within each block) and orthonormal modes
    of a generator, one `eigh` per block of `Generator.blocks`.

    A Block or raw array is one block over all its rows.  A Generator's or
    Block's modes are real, as their matrices are; a raw array keeps its own
    dtype.  A Block or raw array that is not square, finite and Hermitian
    raises ValueError (a Generator was checked when built).
    """
    if isinstance(generator, Generator):
        mat, blocks = generator.matrix, generator.blocks
    else:
        mat = np.asarray(getattr(generator, "matrix", generator))
        _require_hermitian(mat)
        blocks = (slice(0, len(mat)),)
    solved = [np.linalg.eigh(mat[rows][:, rows]) for rows in blocks]
    return Spectrum(blocks=blocks, frequencies=tuple(f for f, _ in solved),
                    modes=tuple(v for _, v in solved))


def _live_blocks(spec: Spectrum, initial: np.ndarray):
    """(rows, frequencies, modes, mode coefficients of `initial`) of each
    block of `spec` on which `initial` is not exactly zero."""
    for rows, freqs, modes in zip(spec.blocks, spec.frequencies, spec.modes):
        start = initial[rows]
        if start.any():
            yield rows, freqs, modes, modes.conj().T @ start


def _phase_table(a, b) -> np.ndarray:
    """exp(-i a_j b_k), shape a.shape + b.shape, the table every exponential
    sum of the package reads.  Each exponent's imaginary part is the float
    product a_j * b_k negated, so the table has the bits of
    np.exp(-1j * np.multiply.outer(a, b)), built in one complex buffer.
    A non-finite entry of a or b raises ValueError."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("phases must be finite")
    table = np.multiply.outer(a, -1j * b)
    return np.exp(table, out=table)


def _evolve(generator: Generator, initial: np.ndarray,
            times: np.ndarray) -> np.ndarray:
    """Rows exp(-i M t) @ initial, one per entry of times, which must be
    finite, for the real symmetric M of `generator`."""
    out = np.zeros((len(initial), len(times)), dtype=complex)
    for rows, freqs, modes, coeffs in _live_blocks(spectrum(generator), initial):
        # one (modes, times) buffer exp(-i f t) * c, updated in place; read
        # as (re, im) float pairs it is a (modes, 2 times) real matrix, so
        # the block's real modes multiply it in one real GEMM whose product
        # reads back as complex (rows, times)
        buf = _phase_table(freqs, times)
        buf *= coeffs[:, None]
        if isinstance(rows, slice):
            # written straight into its rows: no third (rows, times) table
            np.matmul(modes, buf.view(float), out=out.view(float)[rows])
        else:
            out[rows] = (modes @ buf.view(float)).view(complex)
    return out.T


def _modes(spec: Spectrum, initial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and (mode, row) weights of the solution x(t) of
    i dx/dt = M x with x(0) = initial, from the spectrum of M:
    x(t) = sum_f weights[f] exp(-i f t), over the blocks `initial` touches."""
    live = list(_live_blocks(spec, initial))
    freqs = np.concatenate([np.zeros(0), *(f for _, f, _, _ in live)])
    weights = np.zeros((len(freqs), len(initial)),
                       dtype=np.result_type(initial, *spec.modes))
    start = 0
    for rows, f, modes, coeffs in live:
        weights[start:start + len(f), rows] = (modes * coeffs[None, :]).T
        start += len(f)
    return freqs, weights


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitudes sampled along an exact evolution, with the largest
    deviation of any sampled norm from 1."""

    manifold: Manifold
    times: np.ndarray
    amplitudes: np.ndarray
    norm_drift: float

    def state(self, k: int) -> StateVector:
        return StateVector(self.manifold, self.amplitudes[k])


def propagate(generator: Generator, initial: StateVector, times,
              times_are_phase: bool = False) -> Trajectory:
    """Evolve an initial state to the given times, exactly.

    times are physical (in the generator's time unit) unless
    times_are_phase is set, in which case they are read as xi*t and the
    hopping strength drops out of the large-hopping dynamics entirely.
    `times` is a scalar or a non-empty 1-D sequence of finite values.

    Raises NumericalContractError if any evolved norm drifts beyond 1e-10;
    the worst drift within that bound is the result's `norm_drift`.
    """
    if initial.manifold is not generator.manifold:
        raise ValueError("initial state lives on a different manifold")
    if not abs(initial.norm - 1.0) <= 1e-9:
        raise ValueError(f"initial state is not normalized: |psi| = {initial.norm!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or not times.size:
        raise ValueError(f"times must be a scalar or a non-empty 1-D sequence, "
                         f"got shape {times.shape}")
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
    return Trajectory(manifold=generator.manifold, times=times,
                      amplitudes=amplitudes, norm_drift=worst)


def sector_probabilities(trajectory: Trajectory, by: str = "count") -> dict:
    """Total probability per excitation sector along a trajectory.

    by='count' groups basis states by how many atoms are excited (the four
    sectors); by='pattern' groups by which cavities are excited, the finer
    partition that the pair exchange also conserves (`Manifold.patterns`,
    in its key order).
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
        return {pattern: probs[:, idx].sum(axis=1)
                for pattern, idx in man.patterns.items()}
    raise ValueError(f"by must be 'count' or 'pattern', got {by!r}")


def mode_expansion(generator: Generator | Block | np.ndarray,
                   initial: np.ndarray) -> list[list[tuple[complex, float]]]:
    """Exact exponential-sum form of every amplitude.

    Returns, for each row index i, the list of (coefficient, mu) pairs such
    that amplitude_i(phase) = sum coef * exp(1i * mu * phase), so mu = -freq;
    the closed-form families report the opposite sign, f in exp(-i f xi t).
    Modes with negligible coefficient are dropped; degenerate frequencies
    are merged.  A non-finite initial state raises ValueError.
    """
    freqs, weights = _modes(spectrum(generator), np.asarray(initial, dtype=complex))
    weights[np.abs(weights) < 1e-14] = 0.0
    freqs, weights = _merge_modes(freqs, weights)
    # row-major over (row, mode): each row's terms in ascending frequency
    row, mode = np.nonzero(np.abs(weights.T) > 1e-14)
    terms = list(zip(weights[mode, row].tolist(), (-freqs[mode]).tolist()))
    ends = np.cumsum(np.bincount(row, minlength=weights.shape[1])).tolist()
    return [terms[a:b] for a, b in zip([0, *ends], ends)]
