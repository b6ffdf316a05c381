"""Closed-form amplitude families for the large-hopping dynamics.

A family is one literal record: the basis patterns each label rides on
(their keys are the labels), the parameter defaults (their keys are the
parameters) and the initial product state as a per-cavity table from level to
coefficient (a number or a parameter name).  Its conserved sums are not typed:
the pair exchange never flips an atom, so the probability of each excitation
pattern (`Manifold.patterns`) stays at its value in that initial state, and
`conservation_residual` reads those probabilities.  Every
amplitude is an exponential sum, and one solve produces all of them: the
family's reduced matrix is symmetrized by the pattern norms and
diagonalized in label coordinates once per family (the solve
`matrix_representation` also runs), then started from the labels read off
the initial state.  Five families derive that
matrix as the exact compression of the hopping generator onto their
patterns, so they solve the dynamics to rounding.  The `n6_symmetric`
family carries its documented blocks instead, which DROP the hopping
couplings internal to the symmetrized patterns (a 14ξ diagonal on the
six-member photon pattern and 2ξ diagonals on two others), so away from
t = 0 it deviates from the true propagator by O(1).  It is kept in that form
deliberately — `solves_hopping` is False, and the verification suite
quantifies the mismatch instead of hiding it.  The paper's typed
coefficient tables and surd forms for the other five families are
reference data in `trimodal.verification`, checked there against the
exact evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .basis import (
    ALL_PERMUTATIONS,
    EVEN_PERMUTATIONS,
    BasisState,
    Manifold,
    StateVector,
    enumerate_manifold,
    parse_level,
    product_state,
)
from .dynamics import Block, Generator, build_large_xi_generator
from .evolve import Spectrum, _merge_modes, _modes, _phase_table, spectrum

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)
SQ30 = math.sqrt(30.0)

Pattern = tuple[tuple[BasisState, float], ...]


def _state(*levels: str) -> BasisState:
    return BasisState(tuple(parse_level(s) for s in levels))


def _pattern(*level_groups: tuple[str, str, str]) -> Pattern:
    """Unnormalized pattern: weight 1 on every listed basis state."""
    return tuple((_state(*levels), 1.0) for levels in level_groups)


def _orbit_pattern(levels: tuple[str, str, str], perms) -> Pattern:
    """Normalized permutation-orbit pattern (weight 1/sqrt(#distinct)),
    members in order of first appearance over `perms`."""
    seed = _state(*levels)
    man = enumerate_manifold(seed.total)
    i = man.index_of(seed)
    members = dict.fromkeys(int(man.images(perm)[i]) for perm in perms)
    w = 1.0 / math.sqrt(len(members))
    return tuple((man.basis[j], w) for j in members)


@dataclass(frozen=True, eq=False)
class AmplitudeSet:
    """Labelled complex amplitudes of one family at a single phase xi*t."""

    family: str
    labels: tuple[str, ...]
    values: np.ndarray

    def __getitem__(self, label: str) -> complex:
        return complex(self.values[self.labels.index(label)])

    def probability(self, label: str) -> float:
        return abs(self[label]) ** 2


class _PatternIndex(NamedTuple):
    """Basis row, weight and label column of every pattern entry (label by
    label), each label's first entry, and the basis rows no pattern covers."""

    rows: np.ndarray
    weights: np.ndarray
    cols: np.ndarray
    firsts: np.ndarray
    uncovered: np.ndarray


@dataclass(frozen=True, eq=False)
class Family:
    """One closed-form amplitude family and its reduced linear system.

    `documented_matrix` is given only for a family whose amplitudes solve a
    documented reduced matrix rather than the hopping dynamics; every other
    family derives its matrix from the hopping generator.  `initial` holds
    one mapping per cavity from level to coefficient, a number or the name
    of a parameter.
    """

    name: str
    n_total: int
    patterns: Mapping[str, Pattern]
    defaults: Mapping[str, complex]
    initial: tuple[Mapping[str, complex | str], ...]
    modulus_period: float | None
    documented_matrix: np.ndarray | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.patterns)

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(self.defaults)

    @cached_property
    def _index(self) -> _PatternIndex:
        """Pattern index, built on first use and kept."""
        man = self.manifold
        entries = [(man.index_of(bstate), w, k)
                   for k, lab in enumerate(self.labels)
                   for bstate, w in self.patterns[lab]]
        rows = np.array([e[0] for e in entries])
        cols = np.array([e[2] for e in entries])
        hits = np.bincount(rows, minlength=man.dim)
        if hits.max() > 1 or np.bincount(cols, minlength=len(self.labels)).min() == 0:
            raise ValueError(f"{self.name} needs one non-empty pattern per "
                             "label, no two sharing a basis state")
        return _PatternIndex(rows=rows,
                             weights=np.array([e[1] for e in entries], dtype=float),
                             cols=cols,
                             firsts=np.searchsorted(cols, np.arange(len(self.labels))),
                             uncovered=np.flatnonzero(hits == 0))

    @property
    def manifold(self) -> Manifold:
        return enumerate_manifold(self.n_total)

    @property
    def solves_hopping(self) -> bool:
        """True when the amplitudes solve the exact hopping dynamics."""
        return self.documented_matrix is None

    @cached_property
    def system_matrix(self) -> np.ndarray:
        """Reduced matrix in label coordinates, i dX/dt = xi * M @ X: the
        documented one if given, else the hopping generator compressed onto
        the patterns (`pattern_compression`)."""
        mat = self.documented_matrix
        if mat is None:
            mat = pattern_compression(self, build_large_xi_generator(self.manifold))
        mat.flags.writeable = False
        return mat

    @cached_property
    def _spectrum(self) -> Spectrum:
        """Eigendecomposition of the symmetrized `system_matrix`, built on
        first use and kept."""
        return _symmetrized_spectrum(self.system_matrix, self.pattern_norms)

    @cached_property
    def pattern_norms(self) -> np.ndarray:
        """sqrt(sum w^2) over each label's pattern; D = diag(pattern_norms)
        makes D @ system_matrix @ D^-1 symmetric."""
        idx = self._index
        return np.sqrt(np.bincount(idx.cols, weights=idx.weights ** 2))

    def _params(self, overrides: Mapping[str, complex]) -> dict[str, complex]:
        unknown = set(overrides) - set(self.parameters)
        if unknown:
            raise ValueError(f"{self.name} has no parameter(s) {sorted(unknown)}")
        params = dict(self.defaults)
        params.update(overrides)
        return params

    def representation(self, **overrides) -> tuple[np.ndarray, np.ndarray]:
        """Exponential-sum form: (frequencies f, coefficient matrix c[f, label]).

        Amplitudes are X_l(t) = sum_f c[f, l] exp(-i f xi t): the solution of
        `system_matrix` started from the labels of `initial_state`.
        """
        initial = self.read_patterns([self.initial_state(**overrides).amplitudes])[0]
        return _solve(self._spectrum, self.pattern_norms, initial)

    def evaluate_phases(self, phases, **overrides) -> np.ndarray:
        """Amplitude table over an array of xi*t values, shape (T, labels).

        Row k equals `evaluate` at phase phases[k] bit for bit.
        """
        freqs, coeffs = self.representation(**overrides)
        return _exp_sum(phases, freqs, coeffs)

    def evaluate(self, xi: float, t: float, **overrides) -> AmplitudeSet:
        values = self.evaluate_phases([xi * t], **overrides)[0]
        return AmplitudeSet(self.name, self.labels, values)

    def initial_state(self, **overrides) -> StateVector:
        """The family's unentangled initial state on its manifold."""
        params = self._params(overrides)
        return product_state(self.manifold, [
            [(parse_level(lv), params[c] if isinstance(c, str) else c)
             for lv, c in cavity.items()]
            for cavity in self.initial])

    def fill_patterns(self, values) -> np.ndarray:
        """Manifold amplitudes, shape (T, dim), carrying a (T, labels) table."""
        idx = self._index
        values = np.asarray(values, dtype=complex)
        out = np.zeros((values.shape[0], self.manifold.dim), dtype=complex)
        out[:, idx.rows] += idx.weights * values[:, idx.cols]
        return out

    def read_patterns(self, amplitudes, tol: float = 1e-9) -> np.ndarray:
        """Labelled amplitudes, shape (T, labels), read off a (T, dim) table
        of manifold states.

        Every row must carry the family's pattern structure: within each
        pattern all basis amplitudes must agree (after weight removal)
        within `tol`, and no amplitude may live outside the patterns.  The
        first row that breaks this raises ValueError, naming its first
        broken pattern, or else its stray weight; NaN breaks both.
        """
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != self.manifold.dim:
            raise ValueError(f"expected a (T, {self.manifold.dim}) amplitude "
                             f"table, got shape {amps.shape}")
        idx = self._index
        reads = amps[:, idx.rows] / idx.weights
        values = reads[:, idx.firsts]
        spread = np.maximum.reduceat(np.abs(reads - values[:, idx.cols]),
                                     idx.firsts, axis=1)
        stray = np.abs(amps[:, idx.uncovered]).max(axis=1, initial=0.0)
        broken = ~(spread <= tol)
        bad_rows = np.flatnonzero(broken.any(axis=1) | ~(stray <= tol))
        if bad_rows.size:
            row = bad_rows[0]
            if broken[row].any():
                k = int(np.argmax(broken[row]))
                raise ValueError(
                    f"state breaks the {self.name}/{self.labels[k]} pattern "
                    f"symmetry (spread {spread[row, k]:.3e})"
                )
            raise ValueError(
                f"state has weight {stray[row]:.3e} outside the {self.name} patterns"
            )
        return values

    def _values_of(self, ampset: AmplitudeSet) -> np.ndarray:
        """The set's values; a set of another family raises ValueError."""
        if ampset.family != self.name:
            raise ValueError(f"{self.name} cannot read a {ampset.family} amplitude set")
        return ampset.values

    def state_vector(self, ampset: AmplitudeSet) -> StateVector:
        """Assemble the manifold state carrying the labelled amplitudes."""
        return StateVector(self.manifold, self.fill_patterns([self._values_of(ampset)])[0])

    def amplitudes_from_state(self, state: StateVector) -> AmplitudeSet:
        """Read labelled amplitudes off a manifold state (see `read_patterns`)."""
        if state.manifold.n_total != self.n_total:
            raise ValueError("state lives on a different manifold")
        values = self.read_patterns([state.amplitudes])[0]
        return AmplitudeSet(self.name, self.labels, values)

    def conservation_residual(self, ampset: AmplitudeSet, **overrides) -> float:
        """Largest change of any excitation-pattern probability
        (`Manifold.patterns`) from its value in `initial_state`; NaN
        amplitudes give NaN."""
        probs = np.abs(np.vstack([self.fill_patterns([self._values_of(ampset)]),
                                  self.initial_state(**overrides).amplitudes])) ** 2
        sums = np.array([probs[:, idx].sum(axis=1)
                         for idx in self.manifold.patterns.values()])
        return float(np.max(np.abs(sums[:, 0] - sums[:, 1])))


def _exp_sum(phases, freqs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rows sum_f coeffs[f] exp(-i f phase), one per phase, shape (T, labels).

    Each row is its own vector-matrix product, so its bits do not depend on
    how many phases share the call; one (T, m) @ (m, labels) product can
    differ from them in the last bit.  Phases that are not a scalar or a 1-D
    sequence, or a non-finite phase, raise ValueError.
    """
    ph = np.atleast_1d(phases)
    if ph.ndim != 1:
        raise ValueError(f"phases must be a scalar or a 1-D sequence, got shape {ph.shape}")
    osc = _phase_table(ph, freqs)
    out = np.empty((osc.shape[0], coeffs.shape[1]), dtype=complex)
    for k, row in enumerate(osc):
        out[k] = row @ coeffs
    return out


def pattern_compression(family: Family, generator: Generator) -> np.ndarray:
    """Exact reduced matrix of a generator in the family's label coordinates.

    Row l reads off i dX_l/dt for a state carrying the family's patterns:
    M[l, m] = (1/w_l) * sum over pattern m terms (s, w) of <rep_l|G|s> * w / xi,
    with rep_l the first basis state of pattern l.  It is
    `family.system_matrix` exactly when `solves_hopping` is true.
    """
    if isinstance(generator, Block):
        raise ValueError("pattern compression needs the full-manifold generator")
    man = generator.manifold
    if man.n_total != family.n_total:
        raise ValueError("generator manifold does not match the family")
    if generator.xi == 0:
        raise ValueError("pattern compression divides by xi, which is 0")
    idx = family._index
    terms = generator.matrix[np.ix_(idx.rows[idx.firsts], idx.rows)] * idx.weights
    sums = np.add.reduceat(terms, idx.firsts, axis=1)
    return sums / (idx.weights[idx.firsts, np.newaxis] * generator.xi)


def matrix_representation(matrix: np.ndarray, initial: np.ndarray,
                          scale: np.ndarray):
    """Exponential-sum solution of i dx/dt = xi * matrix @ x, x(0) = initial.

    `scale` symmetrizes a label-coordinate matrix built on unnormalized
    patterns: D @ matrix @ D^-1 must be symmetric with D = diag(scale).
    Returns merged (frequencies, coefficients[mode, label]); a non-finite
    `initial` raises ValueError.
    """
    s = np.asarray(scale, dtype=float)
    return _solve(_symmetrized_spectrum(matrix, s), s, initial)


def _symmetrized_spectrum(matrix: np.ndarray, scale: np.ndarray) -> Spectrum:
    """Spectrum of D @ matrix @ D^-1, D = diag(scale), which must be symmetric."""
    sym = scale[:, np.newaxis] * matrix * (1.0 / scale)[np.newaxis, :]
    if not np.allclose(sym, sym.T, atol=1e-12):
        raise ValueError("matrix is not symmetrizable by the given scale")
    spec = spectrum(sym)
    for arr in (*spec.frequencies, *spec.modes):
        arr.flags.writeable = False
    return spec


def _solve(spec: Spectrum, scale: np.ndarray, initial: np.ndarray):
    """Merged (frequencies, coefficients[mode, label]) of the label-coordinate
    solution started from `initial`, given `_symmetrized_spectrum`."""
    freqs, weights = _modes(spec, scale * initial)
    return _merge_modes(freqs, weights * (1.0 / scale)[np.newaxis, :])


# --- documented blocks ------------------------------------------------------

# Documented reduced blocks of the totally symmetric family, by label group
# (the all-excited label D stays put).  They omit the intra-pattern hopping
# couplings (diagonal 14 on F, 2 on G, 2 on H of the true compression) and
# are therefore NOT the generator compression; they are kept verbatim
# because the family's reference solutions solve them.
_N6_SYM_BLOCKS = {
    ("A", "F", "K"): np.array([
        [0.0, 12.0, 0.0],
        [12.0, 0.0, 2 * SQ30],
        [0.0, 2 * SQ30, 0.0],
    ]),
    ("B", "E", "G", "J"): np.array([
        [0.0, 4 * SQ3, 2 * SQ2, 0.0],
        [4 * SQ3, 0.0, 2 * SQ6, 0.0],
        [2 * SQ2, 2 * SQ6, 0.0, 4 * SQ3],
        [0.0, 0.0, 4 * SQ3, 0.0],
    ]),
    ("C", "H"): np.array([
        [0.0, 2 * SQ2],
        [2 * SQ2, 0.0],
    ]),
}


def _n6_symmetric_system() -> np.ndarray:
    labels = tuple(_N6_SYM_PATTERNS)
    out = np.zeros((len(labels),) * 2)
    for group, block in _N6_SYM_BLOCKS.items():
        idx = [labels.index(lab) for lab in group]
        out[np.ix_(idx, idx)] = block
    return out


# --- registry ---------------------------------------------------------------

_N2_PATTERNS = {
    "A": _pattern(("g0", "g0", "g2")),
    "B": _pattern(("g0", "g2", "g0")),
    "C": _pattern(("g2", "g0", "g0")),
    "D": _pattern(("g0", "g0", "e0")),
    "E": _pattern(("g0", "e0", "g0")),
    "F": _pattern(("e0", "g0", "g0")),
}

_N4_SINGLE_PATTERNS = {
    "A": _pattern(("g4", "g0", "g0"), ("g0", "g4", "g0")),
    "B": _pattern(("g0", "g2", "g2"), ("g2", "g0", "g2")),
    "C": _pattern(("g2", "g2", "g0")),
    "E": _pattern(("g0", "g2", "e0"), ("g2", "g0", "e0")),
    "F": _pattern(("g0", "g0", "g4")),
    "K": _pattern(("g0", "g0", "e2")),
}

_N4_TWO_PATTERNS = {
    "A": _pattern(("g4", "g0", "g0")),
    "B": _pattern(("g2", "g0", "g2"), ("g2", "g2", "g0")),
    "D": _pattern(("g2", "e0", "g0"), ("g0", "e2", "g0")),
    "E": _pattern(("g2", "g0", "e0"), ("g0", "g0", "e2")),
    "F": _pattern(("g0", "g0", "g4"), ("g0", "g4", "g0")),
    "L": _pattern(("g0", "e0", "e0")),
    "M": _pattern(("g0", "e0", "g2")),
    "N": _pattern(("g0", "g2", "e0")),
    "P": _pattern(("g0", "g2", "g2")),
}

_N6_CONC_PATTERNS = {
    "A": _pattern(("g6", "g0", "g0")),
    "B": _pattern(("g4", "g2", "g0"), ("g4", "g0", "g2")),
    "E": _pattern(("g2", "g4", "g0"), ("g2", "g0", "g4")),
    "G": _pattern(("g0", "g6", "g0"), ("g0", "g0", "g6")),
    "K": _pattern(("g0", "g4", "g2"), ("g0", "g2", "g4")),
    "F": _pattern(("g2", "g2", "g2")),
}

_N6_SYM_PATTERNS = {
    "A": _pattern(("g2", "g2", "g2")),
    "B": _orbit_pattern(("e0", "g2", "g2"), EVEN_PERMUTATIONS),
    "C": _orbit_pattern(("e0", "e0", "g2"), EVEN_PERMUTATIONS),
    "D": _pattern(("e0", "e0", "e0")),
    "E": _orbit_pattern(("g4", "e0", "g0"), ALL_PERMUTATIONS),
    "F": _orbit_pattern(("g4", "g2", "g0"), ALL_PERMUTATIONS),
    "G": _orbit_pattern(("e2", "g2", "g0"), ALL_PERMUTATIONS),
    "H": _orbit_pattern(("e2", "e0", "g0"), ALL_PERMUTATIONS),
    "K": _orbit_pattern(("g6", "g0", "g0"), EVEN_PERMUTATIONS),
    "J": _orbit_pattern(("e4", "g0", "g0"), EVEN_PERMUTATIONS),
}

_N6_ASYM_PATTERNS = {
    "A": _pattern(("e0", "g2", "g2")),
    "B": _pattern(("e0", "g4", "g0")),
    "C": _pattern(("e0", "g0", "g4")),
    "D": _pattern(("e2", "g2", "g0")),
    "E": _pattern(("e2", "g0", "g2")),
    "F": _pattern(("e4", "g0", "g0")),
}

FAMILIES: dict[str, Family] = {}


def _register(family: Family) -> None:
    FAMILIES[family.name] = family


_register(Family(
    name="n2_general",
    n_total=2,
    patterns=_N2_PATTERNS,
    defaults={"a": 1.0, "b": 0.0},
    initial=({"g0": 1.0}, {"g0": 1.0}, {"g2": "a", "e0": "b"}),
    modulus_period=math.pi / 3,
))

_register(Family(
    name="n4_single_cavity",
    n_total=4,
    patterns=_N4_SINGLE_PATTERNS,
    defaults={"a": 1.0, "b": 0.0},
    initial=({"g0": 1.0}, {"g0": 1.0}, {"g4": "a", "e2": "b"}),
    modulus_period=math.pi,
))

_register(Family(
    name="n4_two_cavity",
    n_total=4,
    patterns=_N4_TWO_PATTERNS,
    defaults={"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0},
    initial=({"g0": 1.0}, {"g2": "a", "e0": "b"}, {"g2": "c", "e0": "d"}),
    modulus_period=math.pi,
))

_register(Family(
    name="n6_concentrated",
    n_total=6,
    patterns=_N6_CONC_PATTERNS,
    defaults={},
    initial=({"g6": 1.0}, {"g0": 1.0}, {"g0": 1.0}),
    modulus_period=None,
))

_register(Family(
    name="n6_symmetric",
    n_total=6,
    patterns=_N6_SYM_PATTERNS,
    defaults={"a": 1.0, "b": 0.0},
    initial=({"g2": "a", "e0": "b"},) * 3,
    modulus_period=None,
    documented_matrix=_n6_symmetric_system(),
))

_register(Family(
    name="n6_asymmetric",
    n_total=6,
    patterns=_N6_ASYM_PATTERNS,
    defaults={},
    initial=({"e2": 1.0}, {"g2": 1.0}, {"g0": 1.0}),
    modulus_period=math.pi,
))


def n2_exchange_symmetric(ampset: AmplitudeSet) -> dict[str, complex]:
    """Fold a cavity-3-seeded amplitude set onto its 1<->2-symmetric labels.

    Returns A (photons in cavity 3), B (the sqrt(2)-weighted shared-photon
    combination), and C (cavity 3 excited).  Requires the B/C and E/F basis
    amplitudes to agree, i.e. an initial state of the seeded form; NaN
    amplitudes break that agreement.
    """
    if ampset.family != "n2_general":
        raise ValueError("expected a n2_general amplitude set")
    if not (abs(ampset["B"] - ampset["C"]) <= 1e-9
            and abs(ampset["E"] - ampset["F"]) <= 1e-9):
        raise ValueError("amplitudes lack the 1<->2 exchange symmetry")
    return {"A": ampset["A"], "B": SQ2 * ampset["B"], "C": ampset["D"]}
