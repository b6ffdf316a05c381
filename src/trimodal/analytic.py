"""Closed-form amplitude families for the large-hopping dynamics.

A family is data: the basis patterns each label rides on, its parameters,
its initial product state and its per-sector conservation sums.  Every
amplitude is an exponential sum, and one solve produces all of them: the
family's reduced matrix is diagonalized in label coordinates
(`matrix_representation`), symmetrized by the pattern norms and started
from the labels read off the initial state.  Five families derive that
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
from typing import Callable, Mapping, NamedTuple

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
from .evolve import _merge_modes, _modes

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
    """Normalized permutation-orbit pattern (weight 1/sqrt(#distinct))."""
    seed = _state(*levels)
    seen: list[BasisState] = []
    for perm in perms:
        image = seed.permuted(perm)
        if image not in seen:
            seen.append(image)
    w = 1.0 / math.sqrt(len(seen))
    return tuple((s, w) for s in seen)


@dataclass(frozen=True, eq=False)
class AmplitudeSet:
    """Labelled complex amplitudes of one family at a single (xi, t)."""

    family: str
    labels: tuple[str, ...]
    values: np.ndarray
    xi: float
    t: float

    def __getitem__(self, label: str) -> complex:
        return complex(self.values[self.labels.index(label)])

    def probability(self, label: str) -> float:
        return abs(self[label]) ** 2

    def as_dict(self) -> dict[str, complex]:
        return {lab: complex(v) for lab, v in zip(self.labels, self.values)}


@dataclass(frozen=True, eq=False)
class ConservedSum:
    """sum_l weight_l |X_l(t)|^2 stays at `value(params)` for all t."""

    name: str
    weights: Mapping[str, float]
    value: Callable[[Mapping[str, complex]], float]


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
    family derives its matrix from the hopping generator.
    """

    name: str
    n_total: int
    labels: tuple[str, ...]
    patterns: Mapping[str, Pattern]
    parameters: tuple[str, ...]
    defaults: Mapping[str, complex]
    conserved: tuple[ConservedSum, ...]
    modulus_period: float | None
    _factors: Callable[[Mapping[str, complex]], list[list[tuple]]]
    documented_matrix: np.ndarray | None = None

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
        return matrix_representation(self.system_matrix, initial, self.pattern_norms)

    def evaluate_phases(self, phases, **overrides) -> np.ndarray:
        """Amplitude table over an array of xi*t values, shape (T, labels).

        Row k equals `evaluate` at phase phases[k] bit for bit.
        """
        freqs, coeffs = self.representation(**overrides)
        return _exp_sum(phases, freqs, coeffs)

    def evaluate(self, xi: float, t: float, **overrides) -> AmplitudeSet:
        values = self.evaluate_phases([xi * t], **overrides)[0]
        return AmplitudeSet(self.name, self.labels, values, float(xi), float(t))

    def initial_state(self, **overrides) -> StateVector:
        """The family's unentangled initial state on its manifold."""
        return product_state(self.manifold, self._factors(self._params(overrides)))

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

    def state_vector(self, ampset: AmplitudeSet) -> StateVector:
        """Assemble the manifold state carrying the labelled amplitudes."""
        return StateVector(self.manifold, self.fill_patterns([ampset.values])[0])

    def amplitudes_from_state(self, state: StateVector, xi: float = 1.0,
                              t: float = 0.0, tol: float = 1e-9) -> AmplitudeSet:
        """Read labelled amplitudes off a manifold state (see `read_patterns`)."""
        if state.manifold.n_total != self.n_total:
            raise ValueError("state lives on a different manifold")
        values = self.read_patterns([state.amplitudes], tol)[0]
        return AmplitudeSet(self.name, self.labels, values, float(xi), float(t))

    def conservation_residual(self, ampset: AmplitudeSet, **overrides) -> float:
        """Largest deviation of any conserved sum from its initial value."""
        params = self._params(overrides)
        worst = 0.0
        for cons in self.conserved:
            total = sum(cons.weights[lab] * ampset.probability(lab)
                        for lab in cons.weights)
            worst = max(worst, abs(total - cons.value(params)))
        return worst


def _exp_sum(phases, freqs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rows sum_f coeffs[f] exp(-i f phase), one per phase, shape (T, labels).

    Each row is its own vector-matrix product, so its bits do not depend on
    how many phases share the call; one (T, m) @ (m, labels) product can
    differ from them in the last bit.
    """
    ph = np.atleast_1d(np.asarray(phases, dtype=float))
    osc = np.exp(-1j * np.multiply.outer(ph, freqs))
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
    terms = generator.matrix.real[np.ix_(idx.rows[idx.firsts], idx.rows)] * idx.weights
    sums = np.add.reduceat(terms, idx.firsts, axis=1)
    return sums / (idx.weights[idx.firsts, np.newaxis] * generator.xi)


def matrix_representation(matrix: np.ndarray, initial: np.ndarray,
                          scale: np.ndarray | None = None):
    """Exponential-sum solution of i dx/dt = xi * matrix @ x, x(0) = initial.

    `scale` symmetrizes a label-coordinate matrix built on unnormalized
    patterns: D @ matrix @ D^-1 must be symmetric with D = diag(scale).
    Returns merged (frequencies, coefficients[mode, label]); a non-finite
    `initial` raises ValueError.
    """
    s = np.ones(matrix.shape[0]) if scale is None else np.asarray(scale, dtype=float)
    sym = s[:, np.newaxis] * matrix * (1.0 / s)[np.newaxis, :]
    if not np.allclose(sym, sym.T, atol=1e-12):
        raise ValueError("matrix is not symmetrizable by the given scale")
    freqs, weights = _modes(sym, s * initial)
    return _merge_modes(freqs, weights * (1.0 / s)[np.newaxis, :])


# --- labels and documented blocks ------------------------------------------

N2_LABELS = ("A", "B", "C", "D", "E", "F")
_N2_STATES = (("g0", "g0", "g2"), ("g0", "g2", "g0"), ("g2", "g0", "g0"),
              ("g0", "g0", "e0"), ("g0", "e0", "g0"), ("e0", "g0", "g0"))
N4_SINGLE_LABELS = ("A", "B", "C", "E", "F", "K")
N4_TWO_LABELS = ("A", "B", "D", "E", "F", "L", "M", "N", "P")
N6_CONCENTRATED_LABELS = ("A", "B", "E", "G", "K", "F")
N6_SYMMETRIC_LABELS = ("A", "B", "C", "D", "E", "F", "G", "H", "K", "J")
N6_ASYMMETRIC_LABELS = ("A", "B", "C", "D", "E", "F")

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
    out = np.zeros((10, 10))
    for group, block in _N6_SYM_BLOCKS.items():
        idx = [N6_SYMMETRIC_LABELS.index(lab) for lab in group]
        out[np.ix_(idx, idx)] = block
    return out


# --- registry ---------------------------------------------------------------


def _factors_n2(params):
    return [[(parse_level("g0"), 1.0)], [(parse_level("g0"), 1.0)],
            [(parse_level("g2"), params["a"]), (parse_level("e0"), params["b"])]]


def _factors_n4_single(params):
    return [[(parse_level("g0"), 1.0)], [(parse_level("g0"), 1.0)],
            [(parse_level("g4"), params["a"]), (parse_level("e2"), params["b"])]]


def _factors_n4_two(params):
    return [[(parse_level("g0"), 1.0)],
            [(parse_level("g2"), params["a"]), (parse_level("e0"), params["b"])],
            [(parse_level("g2"), params["c"]), (parse_level("e0"), params["d"])]]


def _factors_n6_concentrated(params):
    return [[(parse_level("g6"), 1.0)], [(parse_level("g0"), 1.0)],
            [(parse_level("g0"), 1.0)]]


def _factors_n6_symmetric(params):
    cavity = [(parse_level("g2"), params["a"]), (parse_level("e0"), params["b"])]
    return [list(cavity), list(cavity), list(cavity)]


def _factors_n6_asymmetric(params):
    return [[(parse_level("e2"), 1.0)], [(parse_level("g2"), 1.0)],
            [(parse_level("g0"), 1.0)]]


def _abs2(key):
    return lambda p: abs(p[key]) ** 2


_N2_PATTERNS = {lab: _pattern(levels)
                for lab, levels in zip(N2_LABELS, _N2_STATES)}

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


def _unit(_params) -> float:
    return 1.0


FAMILIES: dict[str, Family] = {}


def _register(family: Family) -> Family:
    FAMILIES[family.name] = family
    return family


N2_GENERAL = _register(Family(
    name="n2_general",
    n_total=2,
    labels=N2_LABELS,
    patterns=_N2_PATTERNS,
    parameters=("a", "b"),
    defaults={"a": 1.0, "b": 0.0},
    conserved=(
        ConservedSum("photon sector", {"A": 1, "B": 1, "C": 1}, _abs2("a")),
        ConservedSum("excited sector", {"D": 1, "E": 1, "F": 1}, _abs2("b")),
    ),
    modulus_period=math.pi / 3,
    _factors=_factors_n2,
))

N4_SINGLE_CAVITY = _register(Family(
    name="n4_single_cavity",
    n_total=4,
    labels=N4_SINGLE_LABELS,
    patterns=_N4_SINGLE_PATTERNS,
    parameters=("a", "b"),
    defaults={"a": 1.0, "b": 0.0},
    conserved=(
        ConservedSum("photon sector", {"A": 2, "B": 2, "C": 1, "F": 1}, _abs2("a")),
        ConservedSum("excited sector", {"E": 2, "K": 1}, _abs2("b")),
    ),
    modulus_period=math.pi,
    _factors=_factors_n4_single,
))

N4_TWO_CAVITY = _register(Family(
    name="n4_two_cavity",
    n_total=4,
    labels=N4_TWO_LABELS,
    patterns=_N4_TWO_PATTERNS,
    parameters=("a", "b", "c", "d"),
    defaults={"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0},
    conserved=(
        ConservedSum("photon sector", {"A": 1, "B": 2, "F": 2, "P": 1},
                     lambda p: abs(p["a"] * p["c"]) ** 2),
        ConservedSum("both excited", {"L": 1},
                     lambda p: abs(p["b"] * p["d"]) ** 2),
        ConservedSum("cavity 2 excited", {"D": 2, "M": 1},
                     lambda p: abs(p["b"] * p["c"]) ** 2),
        ConservedSum("cavity 3 excited", {"E": 2, "N": 1},
                     lambda p: abs(p["a"] * p["d"]) ** 2),
    ),
    modulus_period=math.pi,
    _factors=_factors_n4_two,
))

N6_CONCENTRATED = _register(Family(
    name="n6_concentrated",
    n_total=6,
    labels=N6_CONCENTRATED_LABELS,
    patterns=_N6_CONC_PATTERNS,
    parameters=(),
    defaults={},
    conserved=(
        ConservedSum("norm", {"A": 1, "B": 2, "E": 2, "G": 2, "K": 2, "F": 1},
                     _unit),
    ),
    modulus_period=None,
    _factors=_factors_n6_concentrated,
))

N6_SYMMETRIC = _register(Family(
    name="n6_symmetric",
    n_total=6,
    labels=N6_SYMMETRIC_LABELS,
    patterns=_N6_SYM_PATTERNS,
    parameters=("a", "b"),
    defaults={"a": 1.0, "b": 0.0},
    conserved=(
        ConservedSum("photon sector", {"A": 1, "F": 1, "K": 1},
                     lambda p: abs(p["a"]) ** 6),
        ConservedSum("one excited", {"B": 1, "E": 1, "G": 1, "J": 1},
                     lambda p: 3 * abs(p["a"]) ** 4 * abs(p["b"]) ** 2),
        ConservedSum("two excited", {"C": 1, "H": 1},
                     lambda p: 3 * abs(p["a"]) ** 2 * abs(p["b"]) ** 4),
        ConservedSum("three excited", {"D": 1}, lambda p: abs(p["b"]) ** 6),
    ),
    modulus_period=None,
    _factors=_factors_n6_symmetric,
    documented_matrix=_n6_symmetric_system(),
))

N6_ASYMMETRIC = _register(Family(
    name="n6_asymmetric",
    n_total=6,
    labels=N6_ASYMMETRIC_LABELS,
    patterns=_N6_ASYM_PATTERNS,
    parameters=(),
    defaults={},
    conserved=(
        ConservedSum("norm", {lab: 1 for lab in N6_ASYMMETRIC_LABELS}, _unit),
    ),
    modulus_period=math.pi,
    _factors=_factors_n6_asymmetric,
))


def evaluate(family: str, xi: float, t: float, **params) -> AmplitudeSet:
    """Evaluate a registered family at one time."""
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; registered: {sorted(FAMILIES)}"
        ) from None
    return fam.evaluate(xi, t, **params)


def n2_amplitudes(initials, xi: float, t) -> AmplitudeSet | np.ndarray:
    """Six-amplitude solution for total 2 from any normalized start: photon
    labels mix through the uniform mode (frequency 4xi) and its complement
    (frequency -2xi); the excited-cavity labels D, E, F are frozen.

    Scalar `t` returns an AmplitudeSet; an array returns shape (T, 6).
    """
    initials = np.asarray(initials, dtype=complex)
    if initials.shape != (6,):
        raise ValueError("need six initial amplitudes")
    total = float(np.sum(np.abs(initials) ** 2))
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"initial amplitudes have squared norm {total!r}")
    fam = N2_GENERAL
    freqs, coeffs = matrix_representation(fam.system_matrix, initials,
                                          fam.pattern_norms)
    table = _exp_sum(np.asarray(t, dtype=float) * xi, freqs, coeffs)
    if np.isscalar(t) or np.ndim(t) == 0:
        return AmplitudeSet(fam.name, fam.labels, table[0], float(xi), float(t))
    return table


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
