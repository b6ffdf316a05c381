"""Per-state definitions the library's table arithmetic is compared against.

The generators and cavity relabelings are filled by index arithmetic on a
manifold's coordinate table, and the product-overlap sweep contracts over
that table; these state-by-state and dense definitions are what that
arithmetic must reproduce.  The suite's return distance, read off the
return amplitude, and its closed-form stay average of an entangled start
are compared against the dense trajectories they replace.  The block-wise
spectral solve and propagation are compared against one dense `eigh` of the
whole generator.
The product-overlap sweep is checked at N = 2 against the exact W-type
closed form.
"""

import math

import numpy as np

from trimodal.basis import BasisState, StateVector, enumerate_manifold, parse_level
from trimodal.dynamics import build_large_xi_generator
from trimodal.evolve import propagate


def hopping_element(bra: BasisState, ket: BasisState, xi: float = 1.0) -> float:
    """Matrix element of the pair-exchange coupling between two basis states.

    Nonzero only when bra differs from ket by one photon pair moved between
    two cavities with atomic flags untouched; the value is
    xi * (sqrt((n+1)*(n+2)) * sqrt(m*(m-1))) for a pair landing on a cavity
    with n photons and leaving one with m photons.
    """
    if bra.total != ket.total:
        return 0.0
    gain = None
    lose = None
    for i, (lb, lk) in enumerate(zip(bra.levels, ket.levels)):
        if lb == lk:
            continue
        if lb.excitation is not lk.excitation:
            return 0.0
        if lb.pairs == lk.pairs + 1:
            if gain is not None:
                return 0.0
            gain = i
        elif lb.pairs == lk.pairs - 1:
            if lose is not None:
                return 0.0
            lose = i
        else:
            return 0.0
    if gain is None or lose is None:
        return 0.0
    n = ket.levels[gain].photons
    m = ket.levels[lose].photons
    return xi * (math.sqrt((n + 1) * (n + 2)) * math.sqrt(m * (m - 1)))


def permuted(state: BasisState, perm: tuple[int, int, int]) -> BasisState:
    """Image under a cavity relabeling: cavity i's content moves to perm[i]."""
    new = [None, None, None]
    for i, target in enumerate(perm):
        new[target - 1] = state.levels[i]
    return BasisState(tuple(new))


def embed(state: StateVector) -> np.ndarray:
    """Dense (d, d, d) qudit tensor carrying the manifold amplitudes."""
    man = state.manifold
    out = np.zeros((man.qudit_dim,) * 3, dtype=complex)
    out[tuple(man.coords.T)] = state.amplitudes
    return out


def return_distance(fam, phases: np.ndarray) -> np.ndarray:
    """||x(t) - x0|| row by row from the propagated large-hopping trajectory
    of the family's start at `phases`."""
    gen = build_large_xi_generator(fam.manifold, xi=1.0)
    x0 = fam.initial_state()
    traj = propagate(gen, x0, phases, times_are_phase=True)
    return np.linalg.norm(traj.amplitudes - x0.amplitudes, axis=1)


def symmetric_start_stay_average() -> float:
    """Mean of |<g0|g0|g2 | x(t)>|^2 over phases [0, pi] from the entangled
    start (|g0|g2|g0> + |g2|g0|g0>)/sqrt(2) under the large-hopping
    generator at N = 2: a 20 001-point trapezoid over the propagated
    trajectory."""
    man = enumerate_manifold(2)
    gen = build_large_xi_generator(man, xi=1.0)
    stay, b1, b2 = (man.index_of(BasisState(tuple(map(parse_level, s.split("|")))))
                    for s in ("g0|g0|g2", "g0|g2|g0", "g2|g0|g0"))
    amps = np.zeros(man.dim)
    amps[[b1, b2]] = 1.0 / math.sqrt(2.0)
    ts = np.linspace(0.0, math.pi, 20001)
    traj = propagate(gen, StateVector(man, amps), ts, times_are_phase=True)
    return float(np.trapezoid(np.abs(traj.amplitudes[:, stay]) ** 2, ts) / math.pi)


def dense_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a whole
    symmetric matrix, from one dense `eigh`."""
    return np.linalg.eigh(matrix)


def dense_evolution(matrix: np.ndarray, initial: np.ndarray,
                    times: np.ndarray) -> np.ndarray:
    """Rows exp(-i M t) @ initial, one per time, from `dense_spectrum`."""
    freqs, modes = dense_spectrum(matrix)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), freqs))
    return (phases * (modes.conj().T @ initial)[None, :]) @ modes.T


def unique_pattern_probabilities(trajectory) -> dict:
    """Total probability per excitation pattern along a trajectory, grouped
    by `np.unique` over the basis states' excited-flag rows."""
    man = trajectory.manifold
    probs = np.abs(trajectory.amplitudes) ** 2
    flags = np.array([lv.excited for lv in man.levels])[man.coords]
    patterns, group = np.unique(flags, axis=0, return_inverse=True)
    groups = {tuple((np.flatnonzero(pat) + 1).tolist()):
              probs[:, np.flatnonzero(group == g)].sum(axis=1)
              for g, pat in enumerate(patterns)}
    return dict(sorted(groups.items()))


def pairwise_term_lists(freqs: np.ndarray, weights: np.ndarray) -> list:
    """Each row's (coefficient, -frequency) terms of merged (mode, row)
    weights, kept by one `abs` per (row, mode) pair above 1e-14."""
    return [[(complex(c), -float(f)) for f, c in zip(freqs, row) if abs(c) > 1e-14]
            for row in weights.T]


def n2_sides(state: StateVector) -> list:
    """Squared norms |x_c|^2 of an N = 2 state psi = sum_c |x_c>_c (x) |g0 g0>.

    Every N = 2 basis state has exactly one cavity off g0 (level position 0),
    so projecting each product factor onto span{g0, x_c / |x_c|} maps the
    best-overlap problem onto the W-type state a|100> + b|010> + c|001>
    with these squared sides.
    """
    man = state.manifold
    if man.n_total != 2:
        raise ValueError(f"the W-type oracle is for N = 2, got {man.n_total}")
    weights = np.abs(state.amplitudes) ** 2
    return [float(weights[man.coords[:, cav] != 0].sum()) for cav in range(3)]


def w_type_overlap(a2, b2, c2):
    """Exact best squared product overlap of the unit W-type state with
    squared sides a2, b2, c2 (floats, or Fractions for exact arithmetic).

    With a the largest side, P_max = a^2 when a^2 >= b^2 + c^2; otherwise
    P_max = 4 R^2, R the circumradius of the triangle of sides a, b, c:
    4 R^2 = 4 a^2 b^2 c^2 / ((a+b+c)(-a+b+c)(a-b+c)(a+b-c)), whose
    denominator is 2(a^2 b^2 + b^2 c^2 + c^2 a^2) - a^4 - b^4 - c^4.
    Refs: Wei & Goldbart, PRA 68, 042307 (2003); Tamaryan, Park & Tamaryan,
    PRA 77, 022325 (2008).
    """
    a2, b2, c2 = sorted((a2, b2, c2), reverse=True)
    if a2 >= b2 + c2:
        return a2
    return 4 * a2 * b2 * c2 / (2 * (a2 * b2 + b2 * c2 + c2 * a2)
                               - a2 * a2 - b2 * b2 - c2 * c2)


def objective_slope(freqs, coeffs, weights, phases) -> np.ndarray:
    """g'(phases) of g = sum_l w_l |sum_f c_fl exp(-i f phase)|^2, summed
    mode pair by mode pair:
        g' = sum_l w_l sum_fg Re(-i (f - g) c_fl conj(c_gl) exp(-i (f - g) phase)).
    """
    phases = np.asarray(phases, dtype=float)
    out = np.zeros(phases.shape)
    for w, col in zip(weights, np.asarray(coeffs).T):
        for f, cf in zip(freqs, col):
            for g, cg in zip(freqs, col):
                out += w * np.real(-1j * (f - g) * cf * np.conj(cg)
                                   * np.exp(-1j * (f - g) * phases))
    return out


def bisect_root(fn, a: float, b: float) -> float:
    """A root of `fn` between a and b, where it changes sign, halved down
    to adjacent doubles."""
    fa = fn(a)
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return m
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
