"""Acceptance suite: every documented value checked against a measurement.

The suite is one ordered table, `_ROWS`: a record per printed line with its
ID, expected text, tolerance text, detail template and rule.  One
measurement function per criterion (`_dimensions` for c1 through
`_invariants` for c9) returns measured values keyed by row ID, and
`_result` turns a record and its measurement into a `CheckResult`: the one
place a status is decided.  To add a row, put its record in `_ROWS` where
it should print and return its measurement from its criterion's function.

A row's bound is `float(tolerance)`.  When the expected text is numbers
("0", "5/9", "{0.2251, 0.5789}"), each measured value must lie within the
bound of its stated number; when it is prose, the measured value itself (a
deviation or a margin) must be at most the bound.  A measurement whose test
is no scalar bound gives its own verdict, reading the numbers it needs from
its row.

A ``pass`` row states a value the library must reproduce.  A ``claim`` row
records a documented value that the honest computation does NOT reproduce,
for reasons quantified by the companion rows next to it (reduced blocks
that drop intra-pattern couplings, best-product overlaps that beat
single-amplitude bounds, a component decimal inconsistent with unit total
probability).  It reads ``known-divergence`` when a finite measurement
misses; if the stated value holds, the analysis is stale and the row fails
loudly instead.  A non-finite measurement fails either rule.

Statuses are calibrated at the default seed.  `run_suite` is deterministic
for a fixed seed: same inputs, same bytes out of `render_table`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ALL_PERMUTATIONS, enumerate_manifold
from .dressed import DressedParams
from .dynamics import build_full_generator, build_large_xi_generator, project_onto
from .evolve import _live_blocks, _modes, propagate, sector_probabilities, spectrum
from .analytic import (
    FAMILIES,
    SQ2,
    SQ3,
    SQ6,
    SQ30,
    _exp_sum,
    _state,
    matrix_representation,
    n2_exchange_symmetric,
    pattern_compression,
)
from .entanglement import closed_form_overlap_n2, max_product_overlap
from .scan import Extremum, _time_averages, dwell_times, family_objective, scan_extrema

PASS = "pass"
FAIL = "FAIL"
KNOWN = "known-divergence"
CLAIM = "claim"

SUITES = ("paper",)

SQ24 = math.sqrt(24.0)
SQ60 = math.sqrt(60.0)
SQ66 = math.sqrt(66.0)
SQ241 = math.sqrt(241.0)
SQ313 = math.sqrt(313.0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    expected: str
    measured: str
    tolerance: str
    detail: str = ""

    @property
    def gate(self) -> bool:
        """True when this row should fail the suite."""
        return self.status == FAIL


@dataclass(frozen=True)
class _Row:
    """One line of the table; `detail` is a `str.format` template filled
    from the measurement's fields, and `rule` is PASS or CLAIM."""
    check_id: str
    expected: str
    tolerance: str
    detail: str = ""
    rule: str = PASS


@dataclass(frozen=True)
class _Measured:
    """One row's measurement: the value or values tested, the printed text
    (by default the value in .17g), the verdict of a row whose test is no
    scalar bound, and named texts for the row's detail template."""
    value: float | tuple | np.ndarray = ()
    text: str | None = None
    ok: bool | None = None
    fields: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _list(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _set(values) -> str:
    return "{" + _list(values) + "}"


def _stated(text: str) -> list[float] | None:
    """The numbers an expected text states, such as "0.107", "5/9", "pi/6"
    or "{18/25, 7/25}", or None when the text is prose."""
    words = (word.partition("/") for word in text.strip("{}").split(", "))
    try:
        return [(math.pi if num == "pi" else float(num)) / float(den or 1)
                for num, _, den in words]
    except ValueError:
        return None


def _bounds(check_id: str) -> list[float]:
    """The numbers in a row's tolerance text ("5e-5 / 1e-3", "exceeds by > 0.2")."""
    return [float(word) for word in _ROW[check_id].tolerance.split()
            if word[0].isdigit()]


def _worst(values) -> float:
    """The largest of `values`, NaN when any is NaN: the builtin max keeps
    its first argument whenever a comparison with NaN is False."""
    return float(np.max(np.fromiter(values, dtype=float)))


def _result(row: _Row, measured: float | _Measured) -> CheckResult:
    """The table line of `row`: the one place a status is decided."""
    if not isinstance(measured, _Measured):
        measured = _Measured(measured)
    values = np.atleast_1d(np.asarray(measured.value, dtype=float))
    holds = measured.ok
    if holds is None:
        stated = _stated(row.expected)
        gap = float(measured.value) if stated is None else _worst(
            abs(v - s) for v, s in zip(values, stated, strict=True))
        holds = gap <= float(row.tolerance)
    if not np.all(np.isfinite(values)):
        status = FAIL
    elif row.rule == CLAIM:
        status = FAIL if holds else KNOWN
    else:
        status = PASS if holds else FAIL
    text = _fmt(measured.value) if measured.text is None else measured.text
    return CheckResult(row.check_id, status, row.expected, text,
                       row.tolerance, row.detail.format(**measured.fields))


# ---------------------------------------------------------------------------
# the table, in printed order


def _entanglement_rows(name: str, stated: float, tol: float, note: str):
    """A documented entanglement value: a claim that the best product state
    reaches it, and a pass for -log2 of the component it was computed from."""
    return (_Row(f"c7.{name}", _fmt(stated), _fmt(tol),
                 "the best product state beats the documented component "
                 "(overlap {overlap} vs {documented})", CLAIM),
            _Row(f"c7.{name}_component_route", _fmt(stated), _fmt(tol), note))


_ROWS = (
    # criterion 1: manifold dimensions
    _Row("c1.dims", "6/18/38", "exact", "restricted spaces inside 27/125/343"),
    _Row("c1.sectors", "10/18/9/1 (1x10 + 3x6 + 3x3 + 1x1 = 38)", "exact",
         "excited-count sector sizes for the 38-state manifold"),
    _Row("c1.alphabet", "3/5/7 per-cavity levels", "exact",
         "qutrit through seven-level qudit"),
    # criterion 2: full-mode generator vs the reference coefficient matrix
    _Row("c2.full_generator", "entrywise 0", "1e-12",
         "r in {{0.5,1,2}} x xi in {{1,50}}; detuning drops out for one pair"),
    _Row("c2.symmetric_reduction", "entrywise 0", "1e-12",
         "compressed corner equals the documented 3x3 system"),
    # criterion 3: documented block spectra, each in its stated orientation
    _Row("c3.exchange_triangle", _set((-2, -2, 4)), _fmt(1e-9),
         "pair exchange between three single states"),
    _Row("c3.moved_pair_quartet", _set((-8, -6, 4, 12)), _fmt(1e-9),
         "distinct frequencies of the symmetric+antisymmetric moved-pair systems"),
    _Row("c3.excited_pair_quartet", _set((-8, -6, 4, 12)), _fmt(1e-9),
         "one excited cavity, six photons, exchange-symmetric variables"),
    _Row("c3.asym_symmetric_quartet", _set((-8, -6, 4, 12)), _fmt(1e-9),
         "2<->3-symmetric part of the strictly asymmetric six-photon family"),
    _Row("c3.ground_antisym_quartet", _set((1 - SQ241, -2, 14, 1 + SQ241)),
         _fmt(1e-9),
         "antisymmetric ground-sector system (trace -14); stated set carries "
         "the solution-exponent signs, the matrix spectrum is its negation"),
    _Row("c3.ground_sym_sextet",
         _set((-1 - SQ241, 7 - SQ313, 0, 2, -1 + SQ241, 7 + SQ313)), _fmt(1e-9),
         "symmetric ground-sector system; aperiodic set"),
    _Row("c3.sym_photon_triplet", _set((-2 * SQ66, 0, 2 * SQ66)), _fmt(1e-9),
         "documented photon-pattern block of the totally symmetric family"),
    _Row("c3.sym_pair_doublet", _set((-2 * SQ2, 2 * SQ2)), _fmt(1e-9),
         "documented two-excited block"),
    _Row("c3.sym_single_quartet", _set((-11.2644, -3.7306, 6.3205, 8.6745)),
         _fmt(1e-3),
         "documented one-excited block vs the rounded reference decimals; "
         "stated set carries the solution-exponent signs, the matrix "
         "spectrum is its negation"),
    # criterion 4: closed-form families vs the exact restricted evolution
    _Row("c4.pair_start", "0", "1e-9",
         "two-cavity start, one photon pair; 1000 samples"),
    _Row("c4.single_excited_quartet", "0", "1e-9",
         "one dressed cavity, four quanta; 1000 samples"),
    _Row("c4.two_pair_lattice", "0", "1e-9",
         "two photon pairs spread over two cavities; 1000 samples"),
    _Row("c4.asym_six", "0", "1e-9",
         "strictly asymmetric six-quanta family; 1000 samples"),
    _Row("c4.concentrated_family", "0", "1e-9",
         "all six patterns, aperiodic window 2*pi"),
    _Row("c4.concentrated_surds", "0", "1e-9",
         "explicit surd forms for the stay-put and spread patterns"),
    _Row("c4.sym_photon_triplet", "0", "1e-9",
         "documented triplet forms omit the 14*xi diagonal of the six-member "
         "pattern", CLAIM),
    _Row("c4.sym_block_gap", "diagonal 14/2/2 on the orbit patterns", "1e-9",
         "exact compression minus documented blocks is purely diagonal: "
         "intra-pattern hopping"),
    _Row("c4.sym_single_quartet", "0", "5e-4",
         "rounded-decimal forms solve the documented block, which itself "
         "omits a 2*xi diagonal", CLAIM),
    _Row("c4.sym_stationary", "0", "1e-9", "all-excited component stays constant"),
    _Row("c4.sym_pair_doublet", "0", "1e-9",
         "documented doublet forms omit the 2*xi diagonal of the two-excited "
         "pattern", CLAIM),
    _Row("c4.sym_printed_regression", "0", "5e-4",
         "rounded decimals vs the exact documented-block solve"),
    # criterion 5: scan extrema; the stated minima are read from `expected`
    _Row("c5.excited_pair_min", "min 1/9 at pi/6 with spread probability 8/9",
         "5e-5 / 1e-3", "excited-pair exchange scan"),
    _Row("c5.single_cavity_minima", "0.1960 at {0.2094, 0.8378}", "5e-5 / 1e-3",
         "deepest stay-put minima, four quanta"),
    _Row("c5.single_cavity_components", "{0.2251, 0.5789}", "5e-5",
         "concentrated and moved-pair probabilities at the minimum"),
    _Row("c5.two_cavity_minima", "0.1829 at {0.1930, 0.8542, 1.2402}",
         "5e-5 / 1e-3", "two-pair spread minima"),
    _Row("c5.two_cavity_comp_rest", _fmt(0.1070), "5e-5"),
    _Row("c5.two_cavity_comp_both", _fmt(0.6060), "5e-5"),
    _Row("c5.two_cavity_comp_shared", _fmt(0.0759), "5e-5"),
    _Row("c5.two_cavity_comp_moved", "0.2112", "5e-5",
         "stated component set sums to 1.0001; the measured set sums to 1 "
         "and rounds to 0.2111", CLAIM),
    _Row("c5.concentrated_min", "0.001833 at 1.7500", "5e-5 / 1e-3",
         "window [0, 2*pi]; aperiodic dynamics"),
    _Row("c5.concentrated_min_components",
         _set((0.140493, 0.055394, 0.459478, 0.342801)), "5e-5",
         "orbit-pattern probabilities at the quoted minimum time {quoted}; "
         "individual components have order-one slope there, so the 5e-5 "
         "match needs that exact time"),
    _Row("c5.concentrated_max", "0.95166 at 3.0318", "5e-5 / 1e-3",
         "near-revival of the concentrated start"),
    _Row("c5.concentrated_max_components",
         _set((0.89530, 0.00137, 0.02296, 0.05637, 0.02225, 0.00176)), "5e-5",
         "all six component probabilities at the near-revival"),
    # criterion 6: special times, exact expressions
    _Row("c6.pair_return", "0", "1e-9", "moved-pair amplitude vanishes at pi/3"),
    _Row("c6.single_cavity_pi3", "{18/25, 7/25} with the others 0", "1e-9",
         "shared-pair and stay-put probabilities at pi/3"),
    _Row("c6.two_cavity_pi3", "{0.72, 0.28}", "1e-9",
         "start and fully shared probabilities at pi/3"),
    _Row("c6.asym_pi3", "{18/25, 7/25}", "1e-9", "asymmetric family at pi/3"),
    _Row("c6.asym_pi5", "(4/9) sin^2(pi/5)", "1e-9",
         "vanishing side amplitudes leave a three-state entangled superposition"),
    # criterion 7: geometric entanglement
    *_entanglement_rows("pair_antinode", 3.170, 1e-3,
                        "stay-put probability 1/9 at the antinode"),
    *_entanglement_rows("single_cavity_min", 2.351, 1e-3,
                        "shared+stay probability at the deepest minimum"),
    *_entanglement_rows("two_cavity_min", 2.450, 1e-3,
                        "start+shared probability at the minimum"),
    *_entanglement_rows("concentrated_min", 9.09, 0.05,
                        "unentangled-component probability ~ 1/546"),
    *_entanglement_rows("sym_half_turn", 6.92, 5e-3,
                        "product component amplitude -1/11"),
    *_entanglement_rows("sym_quarter_turn", 2.28, 5e-3,
                        "product component amplitude 5/11"),
    _Row("c7.random_agreement", "0", "1e-6",
         "the documented curve is the in-basis product overlap; rotated "
         "product states exceed it whenever cos(6*xi*t) < -1/8", CLAIM),
    _Row("c7.random_agreement_floor", "optimizer >= documented curve", "1e-9",
         "one-sided bound over the same 100 points"),
    _Row("c7.random_agreement_in_window", "0", "1e-9",
         "{count} points with cos(6*xi*t) >= -1/8 agree exactly"),
    # criterion 8: dwell times
    _Row("c8.dwell_stay", "5/9", "1e-9",
         "time fraction the pair stays in its start cavity"),
    _Row("c8.dwell_each", "2/9", "1e-9", "per-receiving-cavity fraction"),
    _Row("c8.dwell_moved", "4/9", "1e-9", "combined exchange-symmetric fraction"),
    _Row("c8.dwell_dual_route", "0", "1e-9",
         "closed form vs Gauss-Legendre quadrature"),
    _Row("c8.dwell_bound", "dwell <= 2/9 + |start|^2/3", "1e-9",
         "100 random product starts; worst margin shown"),
    _Row("c8.dwell_bound_needs_product", "> 2/9 (bound with |start|^2 = 0)",
         "exceeds by > 0.2", "entangled symmetric start reaches 4/9"),
    # criterion 9: conservation and property suite
    _Row("c9.norm", "0", "1e-10",
         "full and large-hopping evolution, every family start"),
    _Row("c9.sector_norms", "0", "1e-10",
         "excited-count sector probabilities, n2_general, n4_single_cavity, "
         "n4_two_cavity, n6_symmetric"),
    _Row("c9.permutation_symmetry", "0", "1e-9",
         "totally symmetric start under all five non-identity relabelings"),
    _Row("c9.aperiodic_no_return", "> 1e-3 everywhere on (0, 50*pi]", "1e-3",
         "closest approach after departure {after}"),
    _Row("c9.large_hopping_limit", "strictly decreasing", "ordering",
         "full-vs-reduced deviation at xi = 10, 100, 1000"),
)
_ROW = {row.check_id: row for row in _ROWS}


def _basis(man, *states: str) -> np.ndarray:
    """Unit columns of `man` for basis states written like "g0|g2|g0"."""
    idx = [man.index_of(_state(*s.split("|"))) for s in states]
    return np.eye(man.dim)[:, idx]


def _unit_pair(rng) -> tuple[complex, complex]:
    """A random unit-norm start pair (a, b)."""
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


# ---------------------------------------------------------------------------
# the paper's typed closed forms: reference data for criteria 3 and 4
#
# The library solves the five hopping families from the derived compression
# (`Family.representation`); these hand-typed (frequencies, coefficients)
# tables, reduced matrix and surd forms are the paper's own transcriptions,
# kept here so the reproduction claim is checked against exact evolution.


def _n2_form(a=1.0, b=0.0):
    """Photon labels mix through the uniform mode (frequency 4) and its
    complement (-2); the excited labels D, E, F are frozen (frequency 0)."""
    a0, b0, c0, d0, e0, f0 = np.array([a, 0, 0, b, 0, 0], dtype=complex)
    u = (a0 + b0 + c0) / 3.0
    coeffs = np.array([
        [u, u, u, 0, 0, 0],
        [a0 - u, b0 - u, c0 - u, 0, 0, 0],
        [0, 0, 0, d0, e0, f0],
    ], dtype=complex)
    return np.array([4.0, -2.0, 0.0]), coeffs


def _n4_single_form(a=1.0, b=0.0):
    freqs = np.array([-8.0, -6.0, 12.0, 4.0, -2.0])
    s6 = SQ6
    coeffs = np.array([
        #   A            B            C           E        F           K
        [3 * a / 15, -s6 * a / 15, -s6 * a / 15, 0.0, 3 * a / 15, 0.0],
        [-2 * a / 15, -s6 * a / 15, 2 * s6 * a / 15, 0.0, 4 * a / 15, 0.0],
        [2 * a / 15, s6 * a / 15, s6 * a / 15, 0.0, 2 * a / 15, 0.0],
        [-3 * a / 15, s6 * a / 15, -2 * s6 * a / 15, b / 3, 6 * a / 15, b / 3],
        [0.0, 0.0, 0.0, -b / 3, 0.0, 2 * b / 3],
    ], dtype=complex)
    return freqs, coeffs


def _n4_two_form(a=1.0, b=0.0, c=1.0, d=0.0):
    ac, bc, ad, bd = a * c, b * c, a * d, b * d
    s6 = SQ6
    freqs = np.array([-8.0, -6.0, 4.0, 12.0, -2.0, 0.0])
    coeffs = np.array([
        #   A                B            D         E         F              L    M           N         P
        [-s6 * ac / 15, 2 * ac / 15, 0.0, 0.0, -s6 * ac / 15, 0.0, 0.0, 0.0, 2 * ac / 15],
        [2 * s6 * ac / 15, -3 * ac / 15, 0.0, 0.0, -s6 * ac / 15, 0.0, 0.0, 0.0, 6 * ac / 15],
        [-2 * s6 * ac / 15, -2 * ac / 15, bc / 3, ad / 3, s6 * ac / 15, 0.0, bc / 3, ad / 3, 4 * ac / 15],
        [s6 * ac / 15, 3 * ac / 15, 0.0, 0.0, s6 * ac / 15, 0.0, 0.0, 0.0, 3 * ac / 15],
        [0.0, 0.0, -bc / 3, -ad / 3, 0.0, 0.0, 2 * bc / 3, 2 * ad / 3, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, bd, 0.0, 0.0, 0.0],
    ], dtype=complex)
    return freqs, coeffs


# Reduced matrix on (A; B, E, G, K mirror pairs; F), typed from the hopping
# elements.  Pair patterns carry weight 1 per member, so the label matrix is
# symmetric only after rescaling by the pattern norms.
_N6_CONC_MATRIX = np.array([
    [0.0, 2 * SQ60, 0.0, 0.0, 0.0, 0.0],
    [SQ60, 2.0, 12.0, 0.0, 0.0, SQ24],
    [0.0, 12.0, 0.0, SQ60, 2.0, SQ24],
    [0.0, 0.0, SQ60, 0.0, SQ60, 0.0],
    [0.0, 0.0, 2.0, SQ60, 12.0, SQ24],
    [0.0, 2 * SQ24, 2 * SQ24, 0.0, 2 * SQ24, 0.0],
])
_N6_CONC_SCALE = np.array([1.0, SQ2, SQ2, SQ2, SQ2, 1.0])


def _n6_concentrated_form():
    initial = np.zeros(6, dtype=complex)
    initial[0] = 1.0
    return matrix_representation(_N6_CONC_MATRIX, initial, _N6_CONC_SCALE)


def _n6_asymmetric_form():
    freqs = np.array([4.0, -6.0, -8.0, 12.0])
    s6 = SQ6
    coeffs = np.array([
        #    A         B          C          D         E         F
        [-2 / 15, s6 / 15, -2 * s6 / 15, 4 / 15, -2 / 15, s6 / 15],
        [-3 / 15, -s6 / 15, 2 * s6 / 15, 6 / 15, -3 / 15, -s6 / 15],
        [2 / 15, -s6 / 15, -s6 / 15, 2 / 15, 2 / 15, -s6 / 15],
        [3 / 15, s6 / 15, s6 / 15, 3 / 15, 3 / 15, s6 / 15],
    ], dtype=complex)
    return freqs, coeffs


# family name -> typed (frequencies, coefficients) in the family's labels,
# called with the family's parameters as keywords
PAPER_FORMS = {
    "n2_general": _n2_form,
    "n4_single_cavity": _n4_single_form,
    "n4_two_cavity": _n4_two_form,
    "n6_concentrated": _n6_concentrated_form,
    "n6_asymmetric": _n6_asymmetric_form,
}


def n6_concentrated_AF(xi: float, t) -> tuple[complex, complex]:
    """Hand-coded surd forms of the survival amplitude A (all six photons
    still in cavity 1) and the evenly-spread amplitude F for the
    concentrated initial state.  Vectorized over t."""
    ph = np.asarray(t, dtype=float) * xi
    e = lambda f: np.exp(-1j * f * ph)
    A = (2 / 11
         + (10 / 29) * e(2.0)
         + (5 / 66) * (1 + 7 / SQ313) * e(7 - SQ313)
         + (5 / 66) * (1 - 7 / SQ313) * e(7 + SQ313)
         + (14 / 87) * (1 + 8 / (7 * SQ241)) * e(-1 - SQ241)
         + (14 / 87) * (1 - 8 / (7 * SQ241)) * e(-1 + SQ241))
    F = (-math.sqrt(10.0) / 11
         + (math.sqrt(10.0) / 22) * (1 + 7 / SQ313) * e(7 - SQ313)
         + (math.sqrt(10.0) / 22) * (1 - 7 / SQ313) * e(7 + SQ313))
    if np.ndim(t) == 0:
        return complex(A), complex(F)
    return A, F


# Printed 4-decimal transcription of the oscillatory one-excitation group of
# the totally symmetric family; regression data for its documented block.
_N6_SYM_PRINTED_FREQS = np.array([11.2644, 3.7306, -8.6745, -6.3205])
_N6_SYM_PRINTED_COEFFS = np.array([
    #     B        E        G        J
    [0.4054, 0.4607, 0.4860, 0.2989],
    [0.3995, 0.3401, -0.3061, -0.5684],
    [0.0838, -0.2040, 0.2427, -0.1939],
    [0.8433, -0.5968, -0.4227, 0.4633],
])


def n6_symmetric_printed(a: complex, b: complex, xi: float, t) -> dict[str, np.ndarray]:
    """Literal 4-decimal coefficients for the B, E, G, J amplitudes, plus
    the exact closed forms for the other groups, at the times `t` (an
    array)."""
    ph = np.asarray(t, dtype=float) * xi
    begj = _exp_sum(ph, _N6_SYM_PRINTED_FREQS, _N6_SYM_PRINTED_COEFFS) * (a * a * b)
    cos66, sin66 = np.cos(2 * SQ66 * ph), np.sin(2 * SQ66 * ph)
    return {
        "A": (a ** 3 / 11) * (6 * cos66 + 5),
        "F": (-a ** 3 / 11) * SQ66 * 1j * sin66,
        "K": (a ** 3 / 11) * SQ30 * (cos66 - 1),
        "B": begj[..., 0], "E": begj[..., 1], "G": begj[..., 2], "J": begj[..., 3],
        "D": b ** 3 * np.ones_like(ph),
        "C": SQ3 * a * b * b * np.cos(2 * SQ2 * ph),
        "H": -SQ3 * a * b * b * 1j * np.sin(2 * SQ2 * ph),
    }


# ---------------------------------------------------------------------------
# criterion 1: manifold dimensions


def _exact(check_id: str, counts) -> _Measured:
    """Counts written a/b/c, which must read as the row's expected text does
    up to its first space."""
    text = "/".join(map(str, counts))
    return _Measured(text=text, ok=text == _ROW[check_id].expected.split()[0])


def _dimensions() -> dict:
    dims = tuple(enumerate_manifold(n).dim for n in (2, 4, 6))
    sectors = tuple(len(v) for v in enumerate_manifold(6).sectors)
    quds = tuple(enumerate_manifold(n).qudit_dim for n in (2, 4, 6))
    return {"c1.dims": _exact("c1.dims", dims),
            "c1.sectors": _exact("c1.sectors", sectors),
            "c1.alphabet": _exact("c1.alphabet", quds)}


# ---------------------------------------------------------------------------
# criterion 2: full-mode generator vs the reference coefficient matrix


def _reference_n2_full(r: float, xi: float) -> np.ndarray:
    """Literal transcription of the documented full-mode system, reference
    pair units.  Row order matches the canonical manifold order for N=2:
    (g0,g0,g2), (g0,g2,g0), (g2,g0,g0), (g0,g0,e0), (g0,e0,g0), (e0,g0,g0).
    """
    t0 = 1.0 / (r * SQ2)
    mat = np.zeros((6, 6))
    # photon block: unit diagonal, pair hopping 2*xi between cavities
    for i in range(3):
        mat[i, i] = 1.0
        for j in range(i + 1, 3):
            mat[i, j] = mat[j, i] = 2.0 * xi
    # excited block: tan^2 diagonal, tan sideband to the same-cavity pair state
    for i in range(3, 6):
        mat[i, i] = t0 * t0
    for k in range(3):
        mat[k, k + 3] = mat[k + 3, k] = t0
    return mat


def _generators() -> dict:
    man2 = enumerate_manifold(2)
    full = _worst(np.max(np.abs(
        build_full_generator(man2, DressedParams(r=r), xi=xi).matrix
        - _reference_n2_full(r, xi)))
        for r in (0.5, 1.0, 2.0) for xi in (1.0, 50.0))

    # 1<->2-symmetric reduction: compress onto (pair in cavity 3,
    # symmetrized moved pair, excited cavity 3).  The three states do not
    # span an invariant subspace -- the symmetrized excited pair is omitted
    # by the reference -- but the compressed corner matches it exactly.
    r, xi = 1.0, 1.0
    gen = build_full_generator(man2, DressedParams(r=r), xi=xi)
    a, b1, b2, d = _basis(man2, "g0|g0|g2", "g0|g2|g0", "g2|g0|g0",
                          "g0|g0|e0").T
    emb = np.column_stack([a, (b1 + b2) / SQ2, d])
    block = project_onto(gen, emb)
    t0 = 1.0 / (r * SQ2)
    ref7 = np.array([[1.0, 2.0 * SQ2 * xi, t0],
                     [2.0 * SQ2 * xi, 1.0 + 2.0 * xi, 0.0],
                     [t0, 0.0, t0 * t0]])
    return {"c2.full_generator": full,
            "c2.symmetric_reduction": float(np.max(np.abs(block.matrix - ref7)))}


# ---------------------------------------------------------------------------
# criterion 3: documented block spectra


def _real_eigs(mat: np.ndarray) -> np.ndarray:
    """A documented real spectrum, ascending; NaN, failing its row, if complex."""
    vals = np.linalg.eigvals(np.asarray(mat, dtype=float))
    if np.abs(vals.imag).max() > 1e-9 * max(1.0, np.abs(vals).max()):
        return np.full(vals.shape, np.nan)
    return np.sort(vals.real)


def _spectrum(mat, negated: bool = False) -> _Measured:
    """The real spectrum of `mat`, printed ascending and tested in the row's
    orientation: the reference states some sets with the solution-exponent
    signs, the negation of the matrix spectrum."""
    eigs = _real_eigs(mat)
    return _Measured(np.sort(-eigs) if negated else eigs, _set(eigs))


def _pattern_embedding(family, groups) -> np.ndarray:
    """Orthonormal columns spanning label-combination patterns of a family."""
    indicators = [[label in group for label in family.labels] for group in groups]
    # the patterns are real indicators: the imaginary part is exactly 0
    cols = family.fill_patterns(indicators).real.T
    return cols / np.linalg.norm(cols, axis=0)


def _spectra() -> dict:
    # single-state exchange triangle (three documented systems share it)
    triangle = np.full((3, 3), 2.0) - 2.0 * np.eye(3)

    # N=4 no-excited photon patterns: symmetric 4-dim + antisymmetric 2-dim,
    # written in the combined variables (A, B+C, G+F, P) and (B-C, G-F)
    sym4 = np.array([[0, SQ24, 0, 0],
                     [2 * SQ24, 2, SQ24, 4],
                     [0, SQ24, 0, 2 * SQ24],
                     [0, 2, SQ24, 0]], dtype=float)
    anti2 = np.array([[-2.0, -SQ24], [-SQ24, 0.0]])
    union = sorted(set(round(v, 9) for v in _real_eigs(sym4)) |
                   set(round(v, 9) for v in _real_eigs(anti2)))

    # same set from the one-excited six-photon system (combined variables)
    c9 = np.array([[2, SQ24, 2 * SQ24, 4],
                   [SQ24, 0, 0, 2 * SQ24],
                   [SQ24, 0, 0, 0],
                   [2, SQ24, 0, 0]])
    asym = FAMILIES["n6_asymmetric"]
    sym_patterns = [("A",), ("B", "C"), ("D", "E"), ("F",)]
    gen6 = build_large_xi_generator(enumerate_manifold(6), xi=1.0)
    emb = _pattern_embedding(asym, sym_patterns)
    blk = project_onto(gen6, emb)

    # ground-sector antisymmetric quartet (trace -14)
    c2 = np.array([[-2, 12, 0, 0],
                   [12, 0, SQ60, 2],
                   [0, SQ60, 0, SQ60],
                   [0, 2, SQ60, -12]], dtype=float)

    # fully symmetric documented blocks, read off the family's matrix
    sym = FAMILIES["n6_symmetric"]

    def block(*labels):
        idx = [sym.labels.index(lab) for lab in labels]
        return sym.system_matrix[np.ix_(idx, idx)]

    return {"c3.exchange_triangle": _spectrum(triangle),
            "c3.moved_pair_quartet": _Measured(tuple(union), _set(union)),
            "c3.excited_pair_quartet": _spectrum(c9),
            "c3.asym_symmetric_quartet": _spectrum(blk.matrix),
            "c3.ground_antisym_quartet": _spectrum(c2, negated=True),
            # the symmetric ground-sector system is the concentrated family's
            "c3.ground_sym_sextet": _spectrum(_N6_CONC_MATRIX),
            "c3.sym_photon_triplet": _spectrum(block("A", "F", "K")),
            "c3.sym_pair_doublet": _spectrum(block("C", "H")),
            "c3.sym_single_quartet": _spectrum(block("B", "E", "G", "J"),
                                               negated=True)}


# ---------------------------------------------------------------------------
# criterion 4: closed-form families vs the exact restricted evolution


def _exact_trajectory(fam, phases: np.ndarray, **params):
    """The exact large-hopping evolution of the family's start at `phases`."""
    gen = build_large_xi_generator(fam.manifold, xi=1.0)
    return propagate(gen, fam.initial_state(**params), phases,
                     times_are_phase=True)


def _label_error(fam, got: np.ndarray, ref: dict, labels) -> float:
    """Max |got - ref| over the labels, with hypot like abs(complex)."""
    diffs = (got[:, fam.labels.index(la)] - ref[la] for la in labels)
    return _worst(np.max(np.hypot(d.real, d.imag)) for d in diffs)


def _family_deviation(name: str, window: float, labels=None, form=None,
                      **params) -> float:
    """Max closed-form amplitude error against the exact evolution at 1000
    phases on [0, window].  `form` is a (frequencies, coefficients) pair, by
    default the family's own, or a callable from phases to {label:
    amplitudes} compared on `labels`."""
    fam = FAMILIES[name]
    ts = np.linspace(0.0, window, 1000)
    traj = _exact_trajectory(fam, ts, **params)
    if callable(form):
        ref = form(ts)
    else:
        amps = _exp_sum(ts, *(form or fam.representation(**params)))
        if labels is None:
            return float(np.max(np.abs(traj.amplitudes - fam.fill_patterns(amps))))
        ref = dict(zip(fam.labels, amps.T))
    got = fam.read_patterns(traj.amplitudes, tol=1e-6)
    return _label_error(fam, got, ref, labels)


def _oracle() -> dict:
    out = {}
    for check_id, name, params in (
            ("c4.pair_start", "n2_general", dict(a=0.6, b=0.8)),
            ("c4.single_excited_quartet", "n4_single_cavity", dict(a=0.6, b=0.8)),
            ("c4.two_pair_lattice", "n4_two_cavity", dict(a=0.6, b=0.8)),
            ("c4.asym_six", "n6_asymmetric", {})):
        out[check_id] = _family_deviation(
            name, math.pi, form=PAPER_FORMS[name](**params), **params)

    # concentrated six-photon family: typed-matrix solve plus the two
    # explicit forms
    out["c4.concentrated_family"] = _family_deviation(
        "n6_concentrated", 2 * math.pi, form=_n6_concentrated_form())
    out["c4.concentrated_surds"] = _family_deviation(
        "n6_concentrated", 2 * math.pi, labels=("A", "F"),
        form=lambda ph: dict(zip("AF", n6_concentrated_AF(1.0, ph))))

    # totally symmetric family: the documented reduced blocks drop the
    # hopping couplings internal to the symmetrized patterns, so the
    # documented forms drift from the exact evolution at order one.
    out["c4.sym_photon_triplet"] = _family_deviation(
        "n6_symmetric", 2 * (math.pi / SQ66), labels=("A", "F", "K"), a=1.0, b=0.0)
    sym = FAMILIES["n6_symmetric"]
    blk = pattern_compression(sym, build_large_xi_generator(sym.manifold, xi=1.0))
    diff = blk - np.array(sym.system_matrix, dtype=float)
    expected_diff = np.zeros_like(diff)
    for label, gap in (("F", 14.0), ("G", 2.0), ("H", 2.0)):
        k = sym.labels.index(label)
        expected_diff[k, k] = gap
    out["c4.sym_block_gap"] = float(np.max(np.abs(diff - expected_diff)))

    out["c4.sym_single_quartet"] = _family_deviation(
        "n6_symmetric", math.pi, labels=("B", "E", "G", "J"),
        form=lambda ph: n6_symmetric_printed(0.6, 0.8, 1.0, ph), a=0.6, b=0.8)
    out["c4.sym_stationary"] = _family_deviation(
        "n6_symmetric", math.pi, labels=("D",), a=0.6, b=0.8)
    out["c4.sym_pair_doublet"] = _family_deviation(
        "n6_symmetric", math.pi, labels=("C", "H"), a=0.6, b=0.8)

    # companion: the documented forms do solve their own reduced blocks
    ts = np.linspace(0.0, math.pi, 250)
    out["c4.sym_printed_regression"] = _label_error(
        sym, sym.evaluate_phases(ts, a=0.6, b=0.8),
        n6_symmetric_printed(0.6, 0.8, 1.0, ts), ("B", "E", "G", "J"))
    return out


# ---------------------------------------------------------------------------
# criterion 5: scan extrema


def _minima(objective, window: float, below: float):
    ext = scan_extrema(objective, 0.0, window)
    return [e for e in ext if e.kind == "min" and not e.at_endpoint
            and e.value < below]


def _nearest(extrema, phase: float):
    return min(extrema, key=lambda e: abs(e.phase - phase))


def _stated_extrema(check_id: str, extrema) -> tuple[Extremum, _Measured]:
    """The extrema nearest the phases the row states ("0.1960 at {0.2094,
    0.8378}": one value at each phase), each to be within the row's value /
    phase tolerances of its stated point; returns the match nearest the
    first stated phase with the row's measurement."""
    [value], phases = (_stated(part) for part in
                       _ROW[check_id].expected.split(" at "))
    vtol, ttol = _bounds(check_id)
    got = [_nearest(extrema, p) for p in phases]
    ok = all(abs(e.phase - p) <= ttol and abs(e.value - value) <= vtol
             for e, p in zip(got, phases))
    text = "; ".join(f"{_fmt(e.value)} at {_fmt(e.phase)}" for e in got)
    return got[0], _Measured(text=text, ok=ok)


def _extrema() -> tuple[dict, dict]:
    """Criterion 5 measurements, and the extrema matched to the stated
    minima of the single-cavity, two-cavity and concentrated starts, which
    criterion 7 reads too."""
    # the landmark scans: the stay-put minima of the four-quanta starts and
    # every extremum of the concentrated six-photon start over [0, 2*pi]
    single = family_objective(FAMILIES["n4_single_cavity"], "|C|^2+|F|^2",
                              a=1.0, b=0.0)
    two = family_objective(FAMILIES["n4_two_cavity"], "|A|^2+|P|^2",
                           a=1.0, b=0.0)
    concentrated = family_objective(FAMILIES["n6_concentrated"], "|A|^2+|F|^2")
    landmarks = {"single_cavity": _minima(single, math.pi, below=0.3),
                 "two_cavity": _minima(two, math.pi, below=0.25),
                 "concentrated": scan_extrema(concentrated, 0.0, 2 * math.pi)}
    out, matched = {}, {}

    fam = FAMILIES["n4_single_cavity"]
    obj = family_objective(fam, "|K|^2", a=0.0, b=1.0)
    words = map(_stated, _ROW["c5.excited_pair_min"].expected.split())
    value, phase, spread = (num[0] for num in words if num)
    e = _nearest(_minima(obj, math.pi, below=0.5), phase)
    amps = fam.evaluate(1.0, e.phase, a=0.0, b=1.0)
    two_e = 2 * abs(amps["E"]) ** 2
    vtol, ttol = _bounds("c5.excited_pair_min")
    ok = (abs(e.phase - phase) <= ttol
          and abs(e.value - value) <= vtol and abs(two_e - spread) <= vtol)
    out["c5.excited_pair_min"] = _Measured(
        text=f"{_fmt(e.value)} at {_fmt(e.phase)}, spread {_fmt(two_e)}", ok=ok)

    matched["single_cavity"], out["c5.single_cavity_minima"] = _stated_extrema(
        "c5.single_cavity_minima", landmarks["single_cavity"])
    amps = fam.evaluate(1.0, matched["single_cavity"].phase, a=1.0, b=0.0)
    comp = (2 * abs(amps["A"]) ** 2, 2 * abs(amps["B"]) ** 2)
    out["c5.single_cavity_components"] = _Measured(comp, _set(comp))

    fam = FAMILIES["n4_two_cavity"]
    matched["two_cavity"], out["c5.two_cavity_minima"] = _stated_extrema(
        "c5.two_cavity_minima", landmarks["two_cavity"])
    amps = fam.evaluate(1.0, matched["two_cavity"].phase, a=1.0, b=0.0)
    out["c5.two_cavity_comp_rest"] = abs(amps["A"]) ** 2
    out["c5.two_cavity_comp_both"] = 2 * abs(amps["F"]) ** 2
    out["c5.two_cavity_comp_shared"] = abs(amps["P"]) ** 2
    out["c5.two_cavity_comp_moved"] = 2 * abs(amps["B"]) ** 2

    fam = FAMILIES["n6_concentrated"]
    interior = [e for e in landmarks["concentrated"] if not e.at_endpoint]
    matched["concentrated"], out["c5.concentrated_min"] = _stated_extrema(
        "c5.concentrated_min", [e for e in interior if e.kind == "min"])
    quoted = _ROW["c5.concentrated_min"].expected.partition(" at ")[2]
    [time] = _stated(quoted)
    amps = fam.evaluate(1.0, time)
    comp = [2 * abs(amps[la]) ** 2 for la in ("B", "E", "G", "K")]
    out["c5.concentrated_min_components"] = _Measured(
        tuple(comp), _set(comp), fields=dict(quoted=quoted))
    emax, out["c5.concentrated_max"] = _stated_extrema(
        "c5.concentrated_max", [e for e in interior if e.kind == "max"])
    amps = fam.evaluate(1.0, emax.phase)
    comp = [abs(amps["A"]) ** 2, 2 * abs(amps["B"]) ** 2,
            2 * abs(amps["E"]) ** 2, abs(amps["F"]) ** 2,
            2 * abs(amps["G"]) ** 2, 2 * abs(amps["K"]) ** 2]
    out["c5.concentrated_max_components"] = _Measured(tuple(comp), _set(comp))
    return out, matched


# ---------------------------------------------------------------------------
# criterion 6: special times, exact expressions


def _special_times() -> dict:
    t = math.pi / 3
    sym = n2_exchange_symmetric(FAMILIES["n2_general"].evaluate(1.0, t, a=1.0, b=0.0))
    out = {"c6.pair_return": abs(sym["B"])}

    amps = FAMILIES["n4_single_cavity"].evaluate(1.0, t, a=1.0, b=0.0)
    shared, stay = _stated(_ROW["c6.single_cavity_pi3"].expected.partition(" with ")[0])
    errs = (abs(abs(amps["C"]) ** 2 - shared),
            abs(abs(amps["F"]) ** 2 - stay),
            abs(amps["A"]), abs(amps["B"]))
    out["c6.single_cavity_pi3"] = _Measured(_worst(errs), "errors " + _list(errs))

    amps = FAMILIES["n4_two_cavity"].evaluate(1.0, t, a=1.0, b=0.0)
    probs = (abs(amps["A"]) ** 2, abs(amps["P"]) ** 2)
    out["c6.two_cavity_pi3"] = _Measured(probs, _list(probs))

    fam = FAMILIES["n6_asymmetric"]
    amps = fam.evaluate(1.0, t)
    probs = (abs(amps["C"]) ** 2, abs(amps["D"]) ** 2)
    out["c6.asym_pi3"] = _Measured(probs, _list(probs))

    # vanishing side amplitudes at pi/5
    prob = abs(fam.evaluate(1.0, math.pi / 5)["A"]) ** 2
    out["c6.asym_pi5"] = _Measured(abs(prob - (4 / 9) * math.sin(math.pi / 5) ** 2),
                                   _fmt(prob))
    return out


# ---------------------------------------------------------------------------
# criterion 7: geometric entanglement


def _entanglement(seed: int, minima: dict) -> dict:
    # (name, state, documented overlap), at the minima criterion 5 matched
    cases = []
    fam = FAMILIES["n2_general"]
    amps = fam.evaluate(1.0, math.pi / 6, a=1.0, b=0.0)
    cases.append(("pair_antinode", fam.state_vector(amps), 1 / 9))
    for key, name in (("single_cavity", "n4_single_cavity"),
                      ("two_cavity", "n4_two_cavity")):
        fam, e = FAMILIES[name], minima[key]
        amps = fam.evaluate(1.0, e.phase, a=1.0, b=0.0)
        cases.append((f"{key}_min", fam.state_vector(amps), e.value))
    fam = FAMILIES["n6_concentrated"]
    e = minima["concentrated"]
    cases.append(("concentrated_min",
                  fam.state_vector(fam.evaluate(1.0, e.phase)), e.value))
    fam = FAMILIES["n6_symmetric"]
    half = math.pi / (2 * SQ66)
    for name, phase, overlap in (("sym_half_turn", half, 1 / 121),
                                 ("sym_quarter_turn", half / 2, 25 / 121)):
        amps = fam.evaluate(1.0, phase, a=1.0, b=0.0)
        cases.append((name, fam.state_vector(amps), overlap))

    out = {}
    for name, state, overlap in cases:
        res = max_product_overlap(state, restarts=64, seed=seed)
        out[f"c7.{name}"] = _Measured(res.entanglement, fields=dict(
            overlap=_fmt(res.overlap), documented=_fmt(overlap)))
        out[f"c7.{name}_component_route"] = -math.log2(overlap)

    # optimizer vs the documented in-basis curve on random trajectory points
    fam = FAMILIES["n2_general"]
    rng = np.random.default_rng(seed)
    points = [(*_unit_pair(rng), float(rng.uniform(0.0, math.pi)))
              for _ in range(100)]
    results = [max_product_overlap(fam.state_vector(fam.evaluate(1.0, t, a=a, b=b)),
                                   restarts=64, seed=seed)
               for a, b, t in points]
    gaps = [res.overlap - closed_form_overlap_n2(a, b, 1.0, t)
            for (a, b, t), res in zip(points, results)]
    in_window = [abs(g) for g, (_, _, t) in zip(gaps, points)
                 if math.cos(6.0 * t) >= -0.125]
    out["c7.random_agreement"] = _worst(abs(g) for g in gaps)
    out["c7.random_agreement_floor"] = _worst([0.0, *(-g for g in gaps)])
    out["c7.random_agreement_in_window"] = _Measured(
        _worst(in_window), fields=dict(count=len(in_window)))
    return out


# ---------------------------------------------------------------------------
# criterion 8: dwell times


def _dwell(seed: int) -> dict:
    fam = FAMILIES["n2_general"]
    stay, each, other = dwell_times(fam, ("A", "B", "C"), a=1.0, b=0.0)
    out = {"c8.dwell_stay": stay.value, "c8.dwell_each": each.value,
           "c8.dwell_moved": each.value + other.value,
           "c8.dwell_dual_route": _worst(
               (stay.route_gap, each.route_gap, other.route_gap))}

    rng = np.random.default_rng(seed)
    margins = []
    col = [fam.labels.index("A")]
    for _ in range(100):
        a, b = _unit_pair(rng)
        freqs, coeffs = fam.representation(a=a, b=b)
        [avg] = _time_averages(freqs, coeffs[:, col], math.pi)
        margins.append(avg - (2 / 9 + abs(a) ** 2 / 3))
    out["c8.dwell_bound"] = _worst(margins)

    # the bound needs a product start: an entangled symmetric start breaks it
    man2 = enumerate_manifold(2)
    gen = build_large_xi_generator(man2, xi=1.0)
    stay, b1, b2 = _basis(man2, "g0|g0|g2", "g0|g2|g0", "g2|g0|g0").T
    freqs, weights = _modes(spectrum(gen), (b1 + b2) / SQ2)
    [avg] = _time_averages(freqs, weights @ stay[:, None], math.pi)
    [excess] = _bounds("c8.dwell_bound_needs_product")
    out["c8.dwell_bound_needs_product"] = _Measured(avg, ok=avg > 2 / 9 + excess)
    return out


# ---------------------------------------------------------------------------
# criterion 9: conservation and property suite


def _return_distance(fam, phases: np.ndarray) -> np.ndarray:
    """||x(t) - x0|| of the family's exact large-hopping evolution at
    `phases` from the return amplitude: with p_k = |<k|x0>|^2 over the modes
    with p_k > 1e-14, 2 - 2 Re sum_k p_k exp(-i f_k t), written as
    4 sum_k p_k sin^2(f_k t / 2) to avoid cancellation near a return."""
    spec = spectrum(build_large_xi_generator(fam.manifold, xi=1.0))
    blocks = list(_live_blocks(spec, fam.initial_state().amplitudes))
    freqs = np.concatenate([f for _, f, _, _ in blocks])
    weights = np.abs(np.concatenate([c for _, _, _, c in blocks])) ** 2
    live = weights > 1e-14
    half = 0.5 * np.multiply.outer(phases, freqs[live])
    return 2.0 * np.sqrt(np.sin(half) ** 2 @ weights[live])


def _invariants() -> dict:
    # norm preservation across modes and manifolds
    man2 = enumerate_manifold(2)
    full = build_full_generator(man2, DressedParams(r=1.0, delta=0.25), xi=10.0)
    x0 = FAMILIES["n2_general"].initial_state(a=0.6, b=0.8)
    ts = np.linspace(0.0, math.pi, 400)
    drift = propagate(full, x0, ts, times_are_phase=True).norm_drift
    out = {"c9.norm": _worst([drift, *(_exact_trajectory(fam, ts).norm_drift
                                       for fam in FAMILIES.values())])}

    # sector sums stay constant in the large-hopping mode
    gaps = []
    for name in ("n2_general", "n4_single_cavity", "n4_two_cavity", "n6_symmetric"):
        traj = _exact_trajectory(FAMILIES[name], ts, a=0.6, b=0.8)
        for sums in sector_probabilities(traj).values():
            gaps.append(np.max(np.abs(sums - sums[0])))
    out["c9.sector_norms"] = _worst(gaps)

    # permutation symmetry of the start is preserved exactly
    fam = FAMILIES["n6_symmetric"]
    amps = _exact_trajectory(fam, np.linspace(0.0, 2.0, 200), a=0.6, b=0.8).amplitudes
    out["c9.permutation_symmetry"] = _worst(
        np.max(np.abs(amps[:, fam.manifold.images(perm)] - amps))
        for perm in ALL_PERMUTATIONS[1:])

    # the concentrated six-photon dynamics never returns
    ts = np.arange(1, 50_001) * (math.pi / 1000.0)
    dist = _return_distance(FAMILIES["n6_concentrated"], ts)
    dmin = float(dist.min())
    [floor] = _bounds("c9.aperiodic_no_return")
    out["c9.aperiodic_no_return"] = _Measured(
        dmin, ok=dmin > floor, fields=dict(after=_fmt(dist[ts >= 1.0].min())))

    # the large-hopping picture converges to the full one as xi grows
    devs = []
    for xi in (10.0, 100.0, 1000.0):
        gf = build_full_generator(man2, DressedParams(r=1.0, delta=0.25),
                                  xi=xi)
        gl = build_large_xi_generator(man2, xi=xi)
        x0 = FAMILIES["n2_general"].initial_state(a=1.0, b=0.0)
        times = np.linspace(0.0, math.pi / xi, 500)[1:]
        tf = propagate(gf, x0, times)
        tl = propagate(gl, x0, times)
        devs.append(float(np.max(
            np.linalg.norm(tf.amplitudes - tl.amplitudes, axis=1))))
    out["c9.large_hopping_limit"] = _Measured(
        tuple(devs), " > ".join(_fmt(d) for d in devs), ok=devs[0] > devs[1] > devs[2])
    return out


# ---------------------------------------------------------------------------


def run_suite(suite: str = "paper", seed: int = 0) -> list[CheckResult]:
    """Run every acceptance check; deterministic for a fixed seed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    measured = _dimensions() | _generators() | _spectra() | _oracle()
    c5, minima = _extrema()
    measured |= (c5 | _special_times() | _entanglement(seed, minima)
                 | _dwell(seed) | _invariants())
    return [_result(row, measured[row.check_id]) for row in _ROWS]


def render_table(results: list[CheckResult]) -> str:
    wid = max(len(r.check_id) for r in results)
    wst = max(len(r.status) for r in results)
    lines = []
    for r in results:
        line = (f"{r.check_id:<{wid}}  {r.status:<{wst}}  "
                f"measured {r.measured}  expected {r.expected} "
                f"(tol {r.tolerance})")
        if r.detail:
            line += f"  -- {r.detail}"
        lines.append(line)
    n_pass = sum(r.status == PASS for r in results)
    n_known = sum(r.status == KNOWN for r in results)
    n_fail = sum(r.status == FAIL for r in results)
    lines.append(f"summary: {len(results)} checks: {n_pass} pass, "
                 f"{n_known} known-divergence, {n_fail} fail")
    return "\n".join(lines) + "\n"
