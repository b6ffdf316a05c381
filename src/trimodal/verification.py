"""Acceptance suite: every documented value checked against a measurement.

Checks come in two kinds.  A regular check states a value the library must
reproduce; a miss is a failure.  A divergence check records a documented
value that the honest computation does NOT reproduce, for reasons
quantified by companion checks next to it (reduced blocks that drop
intra-pattern couplings, best-product overlaps that beat single-amplitude
bounds, a component decimal inconsistent with unit total probability).
A divergence check "passes" -- status ``known-divergence`` -- exactly when
the mismatch is reproduced as analyzed; if the stated value unexpectedly
holds, the analysis is stale and the check fails loudly instead.

Statuses are calibrated at the default seed.  `run_suite` is deterministic
for a fixed seed: same inputs, same bytes out of `render_table`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisState,
    StateVector,
    enumerate_manifold,
    parse_level,
    permutation_matrix,
    product_state,
)
from .dressed import DressedParams
from .dynamics import build_full_generator, build_large_xi_generator, project_onto
from .evolve import propagate
from .analytic import (
    FAMILIES,
    SQ2,
    SQ3,
    SQ6,
    SQ30,
    _exp_sum,
    matrix_representation,
    n2_exchange_symmetric,
    pattern_compression,
)
from .entanglement import closed_form_overlap_n2, max_product_overlap
from .scan import dwell_time, family_objective, scan_extrema

PASS = "pass"
FAIL = "FAIL"
KNOWN = "known-divergence"

SUITES = ("paper",)

SQ24 = math.sqrt(24.0)
SQ66 = math.sqrt(66.0)
SQ241 = math.sqrt(241.0)
SQ313 = math.sqrt(313.0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    criterion: int
    status: str
    expected: str
    measured: str
    tolerance: str
    detail: str = ""

    @property
    def gate(self) -> bool:
        """True when this row should fail the suite."""
        return self.status == FAIL


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _row(check_id, criterion, ok, expected, measured, tolerance, detail=""):
    return CheckResult(check_id, criterion, PASS if ok else FAIL,
                       expected, measured, tolerance, detail)


def _claim(check_id, criterion, holds, expected, measured, tolerance, detail):
    """A documented claim we expect to fail; passing would be stale analysis."""
    return CheckResult(check_id, criterion, FAIL if holds else KNOWN,
                       expected, measured, tolerance, detail)


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
    [0.0, 2 * math.sqrt(60.0), 0.0, 0.0, 0.0, 0.0],
    [math.sqrt(60.0), 2.0, 12.0, 0.0, 0.0, SQ24],
    [0.0, 12.0, 0.0, math.sqrt(60.0), 2.0, SQ24],
    [0.0, 0.0, math.sqrt(60.0), 0.0, math.sqrt(60.0), 0.0],
    [0.0, 0.0, 2.0, math.sqrt(60.0), 12.0, SQ24],
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


def n6_symmetric_printed(a: complex, b: complex, xi: float, t) -> dict[str, complex]:
    """Literal 4-decimal coefficients for the B, E, G, J amplitudes, plus
    the exact closed forms for the other groups."""
    ph = np.asarray(t, dtype=float) * xi
    begj = _exp_sum(ph, _N6_SYM_PRINTED_FREQS, _N6_SYM_PRINTED_COEFFS) * (a * a * b)
    cos66, sin66 = np.cos(2 * SQ66 * ph), np.sin(2 * SQ66 * ph)
    out = {
        "A": (a ** 3 / 11) * (6 * cos66 + 5),
        "F": (-a ** 3 / 11) * SQ66 * 1j * sin66,
        "K": (a ** 3 / 11) * SQ30 * (cos66 - 1),
        "B": begj[..., 0], "E": begj[..., 1], "G": begj[..., 2], "J": begj[..., 3],
        "D": b ** 3 * np.ones_like(ph),
        "C": SQ3 * a * b * b * np.cos(2 * SQ2 * ph),
        "H": -SQ3 * a * b * b * 1j * np.sin(2 * SQ2 * ph),
    }
    if np.ndim(t) == 0:
        return {k: complex(np.asarray(v).reshape(-1)[0]) for k, v in out.items()}
    return out


# ---------------------------------------------------------------------------
# criterion 1: manifold dimensions


def _dimension_checks() -> list[CheckResult]:
    dims = tuple(enumerate_manifold(n).dim for n in (2, 4, 6))
    rows = [_row("c1.dims", 1, dims == (6, 18, 38),
                 "6/18/38", "/".join(map(str, dims)), "exact",
                 "restricted spaces inside 27/125/343")]
    man6 = enumerate_manifold(6)
    sect = tuple(len(v) for v in man6.sectors)
    formula = (1 * 10, 3 * 6, 3 * 3, 1 * 1)
    rows.append(_row("c1.sectors", 1, sect == formula,
                     "10/18/9/1 (1x10 + 3x6 + 3x3 + 1x1 = 38)",
                     "/".join(map(str, sect)), "exact",
                     "excited-count sector sizes for the 38-state manifold"))
    quds = tuple(enumerate_manifold(n).qudit_dim for n in (2, 4, 6))
    rows.append(_row("c1.alphabet", 1, quds == (3, 5, 7),
                     "3/5/7 per-cavity levels", "/".join(map(str, quds)),
                     "exact", "qutrit through seven-level qudit"))
    return rows


# ---------------------------------------------------------------------------
# criterion 2: full-mode generator vs the reference coefficient matrix


def _reference_n2_full(r: float, xi: float) -> np.ndarray:
    """Literal transcription of the documented full-mode system, reference
    pair units.  Row order matches the canonical manifold order for N=2:
    (g0,g0,g2), (g0,g2,g0), (g2,g0,g0), (g0,g0,e0), (g0,e0,g0), (e0,g0,g0).
    """
    t0 = 1.0 / (r * math.sqrt(2.0))
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


def _generator_checks() -> list[CheckResult]:
    man2 = enumerate_manifold(2)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for xi in (1.0, 50.0):
            gen = build_full_generator(man2, DressedParams(r=r), xi=xi)
            ref = _reference_n2_full(r, xi)
            worst = max(worst, float(np.max(np.abs(gen.matrix - ref))))
    rows = [_row("c2.full_generator", 2, worst <= 1e-12,
                 "entrywise 0", _fmt(worst), "1e-12",
                 "r in {0.5,1,2} x xi in {1,50}; detuning drops out for one pair")]

    # 1<->2-symmetric reduction: compress onto (pair in cavity 3,
    # symmetrized moved pair, excited cavity 3).  The three states do not
    # span an invariant subspace -- the symmetrized excited pair is omitted
    # by the reference -- but the compressed corner matches it exactly.
    r, xi = 1.0, 1.0
    gen = build_full_generator(man2, DressedParams(r=r), xi=xi)
    g0, g2, e0 = parse_level("g0"), parse_level("g2"), parse_level("e0")
    a_state = product_state(man2, [[(g0, 1.0)], [(g0, 1.0)], [(g2, 1.0)]])
    d_state = product_state(man2, [[(g0, 1.0)], [(g0, 1.0)], [(e0, 1.0)]])
    b1 = product_state(man2, [[(g0, 1.0)], [(g2, 1.0)], [(g0, 1.0)]])
    b2 = product_state(man2, [[(g2, 1.0)], [(g0, 1.0)], [(g0, 1.0)]])
    sym = (np.asarray(b1.amplitudes) + np.asarray(b2.amplitudes)) / math.sqrt(2)
    emb = np.column_stack([a_state.amplitudes, sym, d_state.amplitudes])
    block = project_onto(gen, emb, label="exchange-symmetric corner")
    t0 = 1.0 / (r * math.sqrt(2.0))
    ref7 = np.array([[1.0, 2.0 * math.sqrt(2) * xi, t0],
                     [2.0 * math.sqrt(2) * xi, 1.0 + 2.0 * xi, 0.0],
                     [t0, 0.0, t0 * t0]])
    err = float(np.max(np.abs(block.matrix - ref7)))
    rows.append(_row("c2.symmetric_reduction", 2, err <= 1e-12,
                     "entrywise 0", _fmt(err), "1e-12",
                     "compressed corner equals the documented 3x3 system"))
    return rows


# ---------------------------------------------------------------------------
# criterion 3: documented block spectra


def _match_spectrum(eigs: np.ndarray, stated: list[float], tol: float):
    """Compare eigenvalues against a stated set, allowing the whole set to
    carry the opposite sign (the reference mixes the matrix-eigenvalue and
    solution-exponent conventions between its lists)."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    stated = np.sort(np.asarray(stated, dtype=float))
    if eigs.shape != stated.shape:
        return None, math.inf
    direct = float(np.max(np.abs(eigs - stated)))
    negated = float(np.max(np.abs(np.sort(-eigs) - stated)))
    if direct <= tol:
        return "direct", direct
    if negated <= tol:
        return "negated", negated
    return None, min(direct, negated)


def _real_eigs(mat: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvals(np.asarray(mat, dtype=float))
    return np.sort(vals.real)


def _spectrum_row(check_id, mat, stated, tol, source, expect_negated=False):
    eigs = _real_eigs(mat)
    orientation, err = _match_spectrum(eigs, stated, tol)
    ok = orientation is not None
    detail = source
    if orientation == "negated":
        detail += "; stated set carries the solution-exponent signs, " \
                  "the matrix spectrum is its negation"
    if ok and expect_negated and orientation != "negated":
        ok = False
        detail += "; expected the sign-flipped orientation"
    return _row(check_id, 3, ok,
                "{" + ", ".join(_fmt(v) for v in sorted(stated)) + "}",
                "{" + ", ".join(_fmt(v) for v in eigs) + "}",
                _fmt(tol), detail)


def _spectrum_checks() -> list[CheckResult]:
    rows = []
    tol = 1e-9
    # single-state exchange triangle (three documented systems share it)
    triangle = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
    rows.append(_spectrum_row("c3.exchange_triangle", triangle, [-2, -2, 4],
                              tol, "pair exchange between three single states"))

    # N=4 no-excited photon patterns: symmetric 4-dim + antisymmetric 2-dim,
    # written in the combined variables (A, B+C, G+F, P) and (B-C, G-F)
    sym4 = np.array([[0, SQ24, 0, 0],
                     [2 * SQ24, 2, SQ24, 4],
                     [0, SQ24, 0, 2 * SQ24],
                     [0, 2, SQ24, 0]], dtype=float)
    anti2 = np.array([[-2.0, -SQ24], [-SQ24, 0.0]])
    union = sorted(set(round(v, 9) for v in _real_eigs(sym4)) |
                   set(round(v, 9) for v in _real_eigs(anti2)))
    ok = np.allclose(union, [-8, -6, 4, 12], atol=tol)
    rows.append(_row("c3.moved_pair_quartet", 3, ok,
                     "{-8, -6, 4, 12}",
                     "{" + ", ".join(_fmt(v) for v in union) + "}", _fmt(tol),
                     "distinct frequencies of the symmetric+antisymmetric "
                     "moved-pair systems"))

    # same set from the one-excited six-photon system (combined variables)
    c9 = np.array([[2, SQ24, 2 * SQ24, 4],
                   [SQ24, 0, 0, 2 * SQ24],
                   [SQ24, 0, 0, 0],
                   [2, SQ24, 0, 0]])
    rows.append(_spectrum_row("c3.excited_pair_quartet", c9, [-8, -6, 4, 12],
                              tol, "one excited cavity, six photons, "
                              "exchange-symmetric variables"))
    asym = FAMILIES["n6_asymmetric"]
    sym_patterns = [("A",), ("B", "C"), ("D", "E"), ("F",)]
    gen6 = build_large_xi_generator(enumerate_manifold(6), xi=1.0)
    emb = _pattern_embedding(asym, sym_patterns)
    blk = project_onto(gen6, emb, label="2<->3 symmetric")
    rows.append(_spectrum_row("c3.asym_symmetric_quartet", blk.matrix.real,
                              [-8, -6, 4, 12], tol,
                              "2<->3-symmetric part of the strictly "
                              "asymmetric six-photon family"))

    # ground-sector antisymmetric quartet: stated with flipped signs
    sq60 = math.sqrt(60.0)
    c2 = np.array([[-2, 12, 0, 0],
                   [12, 0, sq60, 2],
                   [0, sq60, 0, sq60],
                   [0, 2, sq60, -12]], dtype=float)
    sq241 = math.sqrt(241.0)
    rows.append(_spectrum_row("c3.ground_antisym_quartet", c2,
                              [14, -2, 1 + sq241, 1 - sq241], tol,
                              "antisymmetric ground-sector system (trace -14)",
                              expect_negated=True))

    # ground-sector symmetric sextet == the concentrated family system
    sq313 = math.sqrt(313.0)
    rows.append(_spectrum_row("c3.ground_sym_sextet", _N6_CONC_MATRIX,
                              [0, 2, -1 + sq241, -1 - sq241,
                               7 + sq313, 7 - sq313], tol,
                              "symmetric ground-sector system; aperiodic set"))

    # fully symmetric documented blocks, read off the family's matrix
    sym = FAMILIES["n6_symmetric"]

    def block(*labels):
        idx = [sym.labels.index(lab) for lab in labels]
        return sym.system_matrix[np.ix_(idx, idx)]

    rows.append(_spectrum_row("c3.sym_photon_triplet", block("A", "F", "K"),
                              [0, 2 * math.sqrt(66), -2 * math.sqrt(66)], tol,
                              "documented photon-pattern block of the "
                              "totally symmetric family"))
    rows.append(_spectrum_row("c3.sym_pair_doublet", block("C", "H"),
                              [2 * math.sqrt(2), -2 * math.sqrt(2)], tol,
                              "documented two-excited block"))
    rows.append(_spectrum_row("c3.sym_single_quartet", block("B", "E", "G", "J"),
                              [-11.2644, -3.7306, 6.3205, 8.6745], 1e-3,
                              "documented one-excited block vs the rounded "
                              "reference decimals", expect_negated=True))
    return rows


def _pattern_embedding(family, groups) -> np.ndarray:
    """Orthonormal columns spanning label-combination patterns of a family."""
    indicators = [[label in group for label in family.labels] for group in groups]
    cols = family.fill_patterns(indicators).T
    return cols / np.linalg.norm(cols, axis=0)


# ---------------------------------------------------------------------------
# criterion 4: closed-form families vs the exact restricted evolution


def _exact_trajectory(fam, window: float, n_samples: int = 1000, **params):
    """Phases on [0, window] and the exact large-hopping evolution of the
    family's start over them."""
    gen = build_large_xi_generator(fam.manifold, xi=1.0)
    ts = np.linspace(0.0, window, n_samples)
    return ts, propagate(gen, fam.initial_state(**params), ts,
                         times_are_phase=True)


def _label_error(fam, got: np.ndarray, ref: dict, labels) -> float:
    """Max |got - ref| over the labels, with hypot like abs(complex)."""
    worst = 0.0
    for la in labels:
        d = got[:, fam.labels.index(la)] - ref[la]
        worst = max(worst, float(np.max(np.hypot(d.real, d.imag))))
    return worst


def _family_deviation(name: str, window: float, labels=None, form=None,
                      n_samples=1000, **params) -> float:
    """Max closed-form amplitude error against the exact evolution; `form`
    is a (frequencies, coefficients) pair, by default the family's own."""
    fam = FAMILIES[name]
    ts, traj = _exact_trajectory(fam, window, n_samples, **params)
    amps = _exp_sum(ts, *(form or fam.representation(**params)))
    if labels is None:
        return float(np.max(np.abs(traj.amplitudes - fam.fill_patterns(amps))))
    got = fam.read_patterns(traj.amplitudes, tol=1e-6)
    return _label_error(fam, got, dict(zip(fam.labels, amps.T)), labels)


def _printed_sym_deviation(window: float, a: complex, b: complex,
                           n_samples=1000) -> float:
    """Rounded-decimal one-excited forms vs the exact evolution."""
    fam = FAMILIES["n6_symmetric"]
    ts, traj = _exact_trajectory(fam, window, n_samples, a=a, b=b)
    got = fam.read_patterns(traj.amplitudes, tol=1e-6)
    return _label_error(fam, got, n6_symmetric_printed(a, b, 1.0, ts),
                        ("B", "E", "G", "J"))


def _oracle_checks() -> list[CheckResult]:
    rows = []
    period = math.pi
    cases = [
        ("c4.pair_start", "n2_general", period, dict(a=0.6, b=0.8),
         "two-cavity start, one photon pair"),
        ("c4.single_excited_quartet", "n4_single_cavity", period,
         dict(a=0.6, b=0.8), "one dressed cavity, four quanta"),
        ("c4.two_pair_lattice", "n4_two_cavity", period, dict(a=0.6, b=0.8),
         "two photon pairs spread over two cavities"),
        ("c4.asym_six", "n6_asymmetric", period, {},
         "strictly asymmetric six-quanta family"),
    ]
    for check_id, name, window, params, note in cases:
        err = _family_deviation(name, window, form=PAPER_FORMS[name](**params),
                                **params)
        rows.append(_row(check_id, 4, err <= 1e-9, "0", _fmt(err), "1e-9",
                         note + "; 1000 samples"))

    # concentrated six-photon family: typed-matrix solve plus the two
    # explicit forms
    err = _family_deviation("n6_concentrated", 2 * math.pi,
                            form=_n6_concentrated_form())
    rows.append(_row("c4.concentrated_family", 4, err <= 1e-9, "0",
                     _fmt(err), "1e-9",
                     "all six patterns, aperiodic window 2*pi"))
    fam = FAMILIES["n6_concentrated"]
    ts, traj = _exact_trajectory(fam, 2 * math.pi)
    a_ref, f_ref = n6_concentrated_AF(1.0, ts)
    worst = _label_error(fam, fam.read_patterns(traj.amplitudes, tol=1e-6),
                         {"A": a_ref, "F": f_ref}, ("A", "F"))
    rows.append(_row("c4.concentrated_surds", 4, worst <= 1e-9, "0",
                     _fmt(worst), "1e-9",
                     "explicit surd forms for the stay-put and spread patterns"))

    # totally symmetric family: the documented reduced blocks drop the
    # hopping couplings internal to the symmetrized patterns, so the
    # documented forms drift from the exact evolution at order one.
    sym_window = math.pi / math.sqrt(66.0)
    err = _family_deviation("n6_symmetric", 2 * sym_window,
                            labels=("A", "F", "K"), a=1.0, b=0.0)
    rows.append(_claim("c4.sym_photon_triplet", 4, err <= 1e-9, "0",
                       _fmt(err), "1e-9",
                       "documented triplet forms omit the 14*xi diagonal of "
                       "the six-member pattern"))
    blk = pattern_compression(FAMILIES["n6_symmetric"], traj.generator)
    doc = np.array(FAMILIES["n6_symmetric"].system_matrix, dtype=float)
    diff = blk - doc
    expected_diff = np.zeros_like(diff)
    for label, gap in (("F", 14.0), ("G", 2.0), ("H", 2.0)):
        k = FAMILIES["n6_symmetric"].labels.index(label)
        expected_diff[k, k] = gap
    ok = bool(np.max(np.abs(diff - expected_diff)) <= 1e-9)
    rows.append(_row("c4.sym_block_gap", 4, ok,
                     "diagonal 14/2/2 on the orbit patterns",
                     _fmt(float(np.max(np.abs(diff - expected_diff)))), "1e-9",
                     "exact compression minus documented blocks is purely "
                     "diagonal: intra-pattern hopping"))

    err = _printed_sym_deviation(math.pi, a=0.6, b=0.8)
    rows.append(_claim("c4.sym_single_quartet", 4, err <= 5e-4, "0",
                       _fmt(err), "5e-4",
                       "rounded-decimal forms solve the documented block, "
                       "which itself omits a 2*xi diagonal"))
    err = _family_deviation("n6_symmetric", math.pi, labels=("D",),
                            a=0.6, b=0.8)
    rows.append(_row("c4.sym_stationary", 4, err <= 1e-9, "0", _fmt(err),
                     "1e-9", "all-excited component stays constant"))
    err = _family_deviation("n6_symmetric", math.pi, labels=("C", "H"),
                            a=0.6, b=0.8)
    rows.append(_claim("c4.sym_pair_doublet", 4, err <= 1e-9, "0",
                       _fmt(err), "1e-9",
                       "documented doublet forms omit the 2*xi diagonal of "
                       "the two-excited pattern"))

    # companion: the documented forms do solve their own reduced blocks
    fam = FAMILIES["n6_symmetric"]
    ts = np.linspace(0.0, math.pi, 250)
    worst = _label_error(fam, fam.evaluate_phases(ts, a=0.6, b=0.8),
                         n6_symmetric_printed(0.6, 0.8, 1.0, ts),
                         ("B", "E", "G", "J"))
    rows.append(_row("c4.sym_printed_regression", 4, worst <= 5e-4,
                     "0", _fmt(worst), "5e-4",
                     "rounded decimals vs the exact documented-block solve"))
    return rows


# ---------------------------------------------------------------------------
# criterion 5: scan extrema


def _grid(window: float) -> int:
    return max(16, int(round(4096 * window / math.pi)))


def _minima(objective, window: float, below: float):
    ext = scan_extrema(objective, 0.0, window, grid=_grid(window))
    return [e for e in ext if e.kind == "min" and not e.at_endpoint
            and e.value < below]


def _nearest(extrema, phase: float):
    return min(extrema, key=lambda e: abs(e.phase - phase))


def _landmark_extrema() -> dict[str, list]:
    """The scans that criteria 5 and 7 both read, run once per suite: the
    stay-put minima of the four-quanta starts and every extremum of the
    concentrated six-photon start over [0, 2*pi]."""
    single = family_objective(FAMILIES["n4_single_cavity"], "|C|^2+|F|^2",
                              a=1.0, b=0.0)
    two = family_objective(FAMILIES["n4_two_cavity"], "|A|^2+|P|^2",
                           a=1.0, b=0.0)
    concentrated = family_objective(FAMILIES["n6_concentrated"], "|A|^2+|F|^2")
    window = 2 * math.pi
    return {"single_cavity": _minima(single, math.pi, below=0.3),
            "two_cavity": _minima(two, math.pi, below=0.25),
            "concentrated": scan_extrema(concentrated, 0.0, window,
                                         grid=_grid(window))}


def _extremum_checks(landmarks: dict[str, list]) -> list[CheckResult]:
    rows = []
    vtol, ttol = 5e-5, 1e-3

    fam = FAMILIES["n4_single_cavity"]
    obj = family_objective(fam, "|K|^2", a=0.0, b=1.0)
    ext = _minima(obj, math.pi, below=0.5)
    e = _nearest(ext, math.pi / 6)
    amps = fam.evaluate(1.0, e.phase, a=0.0, b=1.0)
    two_e = 2 * abs(amps["E"]) ** 2
    ok = (abs(e.phase - math.pi / 6) <= ttol
          and abs(e.value - 1 / 9) <= vtol and abs(two_e - 8 / 9) <= vtol)
    rows.append(_row("c5.excited_pair_min", 5, ok,
                     "min 1/9 at pi/6 with spread probability 8/9",
                     f"{_fmt(e.value)} at {_fmt(e.phase)}, spread {_fmt(two_e)}",
                     "5e-5 / 1e-3", "excited-pair exchange scan"))

    ext = landmarks["single_cavity"]
    got = []
    for stated in (0.2094, 0.8378):
        e = _nearest(ext, stated)
        got.append((e.phase, e.value))
    ok = all(abs(p - s) <= ttol and abs(v - 0.1960) <= vtol
             for (p, v), s in zip(got, (0.2094, 0.8378)))
    rows.append(_row("c5.single_cavity_minima", 5, ok,
                     "0.1960 at {0.2094, 0.8378}",
                     "; ".join(f"{_fmt(v)} at {_fmt(p)}" for p, v in got),
                     "5e-5 / 1e-3", "deepest stay-put minima, four quanta"))
    e = _nearest(ext, 0.2094)
    amps = fam.evaluate(1.0, e.phase, a=1.0, b=0.0)
    comp = (2 * abs(amps["A"]) ** 2, 2 * abs(amps["B"]) ** 2)
    ok = abs(comp[0] - 0.2251) <= vtol and abs(comp[1] - 0.5789) <= vtol
    rows.append(_row("c5.single_cavity_components", 5, ok,
                     "{0.2251, 0.5789}",
                     "{" + ", ".join(_fmt(v) for v in comp) + "}", "5e-5",
                     "concentrated and moved-pair probabilities at the minimum"))

    fam = FAMILIES["n4_two_cavity"]
    ext = landmarks["two_cavity"]
    got = []
    for stated in (0.1930, 0.8542, 1.2402):
        e = _nearest(ext, stated)
        got.append((e.phase, e.value))
    ok = all(abs(p - s) <= ttol and abs(v - 0.1829) <= vtol
             for (p, v), s in zip(got, (0.1930, 0.8542, 1.2402)))
    rows.append(_row("c5.two_cavity_minima", 5, ok,
                     "0.1829 at {0.1930, 0.8542, 1.2402}",
                     "; ".join(f"{_fmt(v)} at {_fmt(p)}" for p, v in got),
                     "5e-5 / 1e-3", "two-pair spread minima"))
    e = _nearest(ext, 0.1930)
    amps = fam.evaluate(1.0, e.phase, a=1.0, b=0.0)
    comp = {"rest": abs(amps["A"]) ** 2, "one_moved": 2 * abs(amps["B"]) ** 2,
            "both_moved": 2 * abs(amps["F"]) ** 2, "shared": abs(amps["P"]) ** 2}
    for cid, key, stated in (("c5.two_cavity_comp_rest", "rest", 0.1070),
                             ("c5.two_cavity_comp_both", "both_moved", 0.6060),
                             ("c5.two_cavity_comp_shared", "shared", 0.0759)):
        rows.append(_row(cid, 5, abs(comp[key] - stated) <= vtol,
                         _fmt(stated), _fmt(comp[key]), "5e-5"))
    measured = comp["one_moved"]
    rows.append(_claim("c5.two_cavity_comp_moved", 5,
                       abs(measured - 0.2112) <= vtol,
                       "0.2112", _fmt(measured), "5e-5",
                       "stated component set sums to 1.0001; the measured "
                       "set sums to 1 and rounds to 0.2111"))

    fam = FAMILIES["n6_concentrated"]
    interior = [e for e in landmarks["concentrated"] if not e.at_endpoint]
    emin = _nearest([e for e in interior if e.kind == "min"], 1.7500)
    emax = _nearest([e for e in interior if e.kind == "max"], 3.0318)
    ok = (abs(emin.phase - 1.7500) <= ttol
          and abs(emin.value - 0.001833) <= vtol)
    rows.append(_row("c5.concentrated_min", 5, ok,
                     "0.001833 at 1.7500",
                     f"{_fmt(emin.value)} at {_fmt(emin.phase)}",
                     "5e-5 / 1e-3", "window [0, 2*pi]; aperiodic dynamics"))
    amps = fam.evaluate(1.0, 1.7500)
    comp = [2 * abs(amps[la]) ** 2 for la in ("B", "E", "G", "K")]
    stated = [0.140493, 0.055394, 0.459478, 0.342801]
    ok = all(abs(c - s) <= vtol for c, s in zip(comp, stated))
    rows.append(_row("c5.concentrated_min_components", 5, ok,
                     "{" + ", ".join(_fmt(s) for s in stated) + "}",
                     "{" + ", ".join(_fmt(c) for c in comp) + "}", "5e-5",
                     "orbit-pattern probabilities at the quoted minimum time "
                     "1.7500; individual components have order-one slope "
                     "there, so the 5e-5 match needs that exact time"))
    ok = (abs(emax.phase - 3.0318) <= ttol
          and abs(emax.value - 0.95166) <= vtol)
    rows.append(_row("c5.concentrated_max", 5, ok,
                     "0.95166 at 3.0318",
                     f"{_fmt(emax.value)} at {_fmt(emax.phase)}",
                     "5e-5 / 1e-3", "near-revival of the concentrated start"))
    amps = fam.evaluate(1.0, emax.phase)
    comp = [abs(amps["A"]) ** 2, 2 * abs(amps["B"]) ** 2,
            2 * abs(amps["E"]) ** 2, abs(amps["F"]) ** 2,
            2 * abs(amps["G"]) ** 2, 2 * abs(amps["K"]) ** 2]
    stated = [0.89530, 0.00137, 0.02296, 0.05637, 0.02225, 0.00176]
    ok = all(abs(c - s) <= vtol for c, s in zip(comp, stated))
    rows.append(_row("c5.concentrated_max_components", 5, ok,
                     "{" + ", ".join(_fmt(s) for s in stated) + "}",
                     "{" + ", ".join(_fmt(c) for c in comp) + "}", "5e-5",
                     "all six component probabilities at the near-revival"))
    return rows


# ---------------------------------------------------------------------------
# criterion 6: special times, exact expressions


def _special_time_checks() -> list[CheckResult]:
    rows = []
    tol = 1e-9
    t = math.pi / 3

    fam = FAMILIES["n2_general"]
    sym = n2_exchange_symmetric(fam.evaluate(1.0, t, a=1.0, b=0.0))
    err = abs(sym["B"])
    rows.append(_row("c6.pair_return", 6, err <= tol, "0", _fmt(err),
                     "1e-9", "moved-pair amplitude vanishes at pi/3"))

    fam = FAMILIES["n4_single_cavity"]
    amps = fam.evaluate(1.0, t, a=1.0, b=0.0)
    errs = (abs(abs(amps["C"]) ** 2 - 18 / 25),
            abs(abs(amps["F"]) ** 2 - 7 / 25),
            abs(amps["A"]), abs(amps["B"]))
    rows.append(_row("c6.single_cavity_pi3", 6, max(errs) <= tol,
                     "{18/25, 7/25} with the others 0",
                     "errors " + ", ".join(_fmt(e) for e in errs), "1e-9",
                     "shared-pair and stay-put probabilities at pi/3"))

    fam = FAMILIES["n4_two_cavity"]
    amps = fam.evaluate(1.0, t, a=1.0, b=0.0)
    errs = (abs(abs(amps["A"]) ** 2 - 18 / 25),
            abs(abs(amps["P"]) ** 2 - 7 / 25))
    rows.append(_row("c6.two_cavity_pi3", 6, max(errs) <= tol,
                     "{0.72, 0.28}",
                     f"{_fmt(abs(amps['A']) ** 2)}, {_fmt(abs(amps['P']) ** 2)}",
                     "1e-9", "start and fully shared probabilities at pi/3"))

    fam = FAMILIES["n6_asymmetric"]
    amps = fam.evaluate(1.0, t)
    errs = (abs(abs(amps["C"]) ** 2 - 18 / 25),
            abs(abs(amps["D"]) ** 2 - 7 / 25))
    rows.append(_row("c6.asym_pi3", 6, max(errs) <= tol,
                     "{18/25, 7/25}",
                     f"{_fmt(abs(amps['C']) ** 2)}, {_fmt(abs(amps['D']) ** 2)}",
                     "1e-9", "asymmetric family at pi/3"))

    amps = fam.evaluate(1.0, math.pi / 5)
    target = (4 / 9) * math.sin(math.pi / 5) ** 2
    err = abs(abs(amps["A"]) ** 2 - target)
    rows.append(_row("c6.asym_pi5", 6, err <= tol,
                     "(4/9) sin^2(pi/5)", _fmt(abs(amps["A"]) ** 2), "1e-9",
                     "vanishing side amplitudes leave a three-state "
                     "entangled superposition"))
    return rows


# ---------------------------------------------------------------------------
# criterion 7: geometric entanglement


def _entanglement_cases(landmarks: dict[str, list]):
    """(id, state, documented overlap, stated E, tol, companion detail)."""
    out = []
    fam = FAMILIES["n2_general"]
    amps = fam.evaluate(1.0, math.pi / 6, a=1.0, b=0.0)
    out.append(("pair_antinode", fam.state_vector(amps), 1 / 9, 3.170, 1e-3,
                "stay-put probability 1/9 at the antinode"))

    fam = FAMILIES["n4_single_cavity"]
    e = _nearest(landmarks["single_cavity"], 0.2094)
    amps = fam.evaluate(1.0, e.phase, a=1.0, b=0.0)
    out.append(("single_cavity_min", fam.state_vector(amps), e.value, 2.351,
                1e-3, "shared+stay probability at the deepest minimum"))

    fam = FAMILIES["n4_two_cavity"]
    e = _nearest(landmarks["two_cavity"], 0.1930)
    amps = fam.evaluate(1.0, e.phase, a=1.0, b=0.0)
    out.append(("two_cavity_min", fam.state_vector(amps), e.value, 2.450,
                1e-3, "start+shared probability at the minimum"))

    fam = FAMILIES["n6_concentrated"]
    e = _nearest([x for x in landmarks["concentrated"]
                  if x.kind == "min" and not x.at_endpoint], 1.7500)
    amps = fam.evaluate(1.0, e.phase)
    out.append(("concentrated_min", fam.state_vector(amps), e.value, 9.09,
                0.05, "unentangled-component probability ~ 1/546"))

    fam = FAMILIES["n6_symmetric"]
    half = math.pi / (2 * math.sqrt(66.0))
    amps = fam.evaluate(1.0, half, a=1.0, b=0.0)
    out.append(("sym_half_turn", fam.state_vector(amps), 1 / 121, 6.92, 5e-3,
                "product component amplitude -1/11"))
    amps = fam.evaluate(1.0, half / 2, a=1.0, b=0.0)
    out.append(("sym_quarter_turn", fam.state_vector(amps), 25 / 121, 2.28,
                5e-3, "product component amplitude 5/11"))
    return out


def _entanglement_checks(seed: int, landmarks: dict[str, list]) -> list[CheckResult]:
    rows = []
    for cid, state, overlap, stated, tol, note in _entanglement_cases(landmarks):
        res = max_product_overlap(state, restarts=64, seed=seed)
        holds = abs(res.entanglement - stated) <= tol
        rows.append(_claim(f"c7.{cid}", 7, holds, _fmt(stated),
                           _fmt(res.entanglement), _fmt(tol),
                           "the best product state beats the documented "
                           f"component (overlap {_fmt(res.overlap)} "
                           f"vs {_fmt(overlap)})"))
        route = -math.log2(overlap)
        rows.append(_row(f"c7.{cid}_component_route", 7,
                         abs(route - stated) <= tol, _fmt(stated),
                         _fmt(route), _fmt(tol), note))

    # optimizer vs the documented in-basis curve on random trajectory points
    fam = FAMILIES["n2_general"]
    rng = np.random.default_rng(seed)
    worst = 0.0
    onesided = 0.0
    in_window = []
    for _ in range(100):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        a, b = complex(v[0]), complex(v[1])
        t = float(rng.uniform(0.0, math.pi))
        amps = fam.evaluate(1.0, t, a=a, b=b)
        res = max_product_overlap(fam.state_vector(amps), restarts=64,
                                  seed=seed)
        cf = closed_form_overlap_n2(a, b, 1.0, t)
        worst = max(worst, abs(res.overlap - cf))
        onesided = max(onesided, cf - res.overlap)
        if math.cos(6.0 * t) >= -0.125:
            in_window.append(abs(res.overlap - cf))
    rows.append(_claim("c7.random_agreement", 7, worst <= 1e-6, "0",
                       _fmt(worst), "1e-6",
                       "the documented curve is the in-basis product "
                       "overlap; rotated product states exceed it whenever "
                       "cos(6*xi*t) < -1/8"))
    rows.append(_row("c7.random_agreement_floor", 7, onesided <= 1e-9,
                     "optimizer >= documented curve", _fmt(onesided), "1e-9",
                     "one-sided bound over the same 100 points"))
    rows.append(_row("c7.random_agreement_in_window", 7,
                     max(in_window) <= 1e-9, "0", _fmt(max(in_window)),
                     "1e-9",
                     f"{len(in_window)} points with cos(6*xi*t) >= -1/8 "
                     "agree exactly"))
    return rows


# ---------------------------------------------------------------------------
# criterion 8: dwell times


def _dwell_checks(seed: int) -> list[CheckResult]:
    rows = []
    tol = 1e-9
    fam = FAMILIES["n2_general"]
    stay = dwell_time(fam, "A", a=1.0, b=0.0)
    each = dwell_time(fam, "B", a=1.0, b=0.0)
    other = dwell_time(fam, "C", a=1.0, b=0.0)
    combined = each.value + other.value
    rows.append(_row("c8.dwell_stay", 8, abs(stay.value - 5 / 9) <= tol,
                     "5/9", _fmt(stay.value), "1e-9",
                     "time fraction the pair stays in its start cavity"))
    rows.append(_row("c8.dwell_each", 8, abs(each.value - 2 / 9) <= tol,
                     "2/9", _fmt(each.value), "1e-9",
                     "per-receiving-cavity fraction"))
    rows.append(_row("c8.dwell_moved", 8, abs(combined - 4 / 9) <= tol,
                     "4/9", _fmt(combined), "1e-9",
                     "combined exchange-symmetric fraction"))
    gap = max(stay.route_gap, each.route_gap, other.route_gap)
    rows.append(_row("c8.dwell_dual_route", 8, gap <= 1e-9,
                     "0", _fmt(gap), "1e-9",
                     "closed form vs composite-Simpson quadrature"))

    rng = np.random.default_rng(seed)
    worst_margin = -math.inf
    for _ in range(100):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        a, b = complex(v[0]), complex(v[1])
        d = dwell_time(fam, "A", quadrature_points=4096, a=a, b=b)
        bound = 2 / 9 + abs(a) ** 2 / 3
        worst_margin = max(worst_margin, d.value - bound)
    rows.append(_row("c8.dwell_bound", 8, worst_margin <= 1e-9,
                     "dwell <= 2/9 + |start|^2/3", _fmt(worst_margin),
                     "1e-9", "100 random product starts; worst margin shown"))

    # the bound needs a product start: an entangled symmetric start breaks it
    man2 = enumerate_manifold(2)
    gen = build_large_xi_generator(man2, xi=1.0)
    g0, g2 = parse_level("g0"), parse_level("g2")
    b1 = product_state(man2, [[(g0, 1.0)], [(g2, 1.0)], [(g0, 1.0)]])
    b2 = product_state(man2, [[(g2, 1.0)], [(g0, 1.0)], [(g0, 1.0)]])
    x0 = StateVector(man2, (np.asarray(b1.amplitudes)
                            + np.asarray(b2.amplitudes)) / math.sqrt(2))
    ts = np.linspace(0.0, math.pi, 20001)
    traj = propagate(gen, x0, ts, times_are_phase=True)
    a_idx = man2.index_of(BasisState((g0, g0, g2)))
    avg = float(np.trapezoid(np.abs(traj.amplitudes[:, a_idx]) ** 2, ts)
                / math.pi)
    rows.append(_row("c8.dwell_bound_needs_product", 8, avg > 2 / 9 + 0.2,
                     "> 2/9 (bound with |start|^2 = 0)", _fmt(avg), "exceeds "
                     "by > 0.2", "entangled symmetric start reaches 4/9"))
    return rows


# ---------------------------------------------------------------------------
# criterion 9: conservation and property suite


def _invariant_checks(seed: int) -> list[CheckResult]:
    rows = []

    # norm preservation across modes and manifolds
    worst = 0.0
    man2 = enumerate_manifold(2)
    full = build_full_generator(man2, DressedParams(r=1.0, delta=0.25), xi=10.0)
    x0 = FAMILIES["n2_general"].initial_state(a=0.6, b=0.8)
    ts = np.linspace(0.0, math.pi, 400)
    traj = propagate(full, x0, ts, times_are_phase=True)
    worst = max(worst, float(np.max(np.abs(
        np.linalg.norm(traj.amplitudes, axis=1) - 1.0))))
    for name in FAMILIES:
        fam = FAMILIES[name]
        gen = build_large_xi_generator(fam.manifold, xi=1.0)
        traj = propagate(gen, fam.initial_state(), ts, times_are_phase=True)
        worst = max(worst, float(np.max(np.abs(
            np.linalg.norm(traj.amplitudes, axis=1) - 1.0))))
    rows.append(_row("c9.norm", 9, worst <= 1e-10, "0", _fmt(worst), "1e-10",
                     "full and large-hopping evolution, every family start"))

    # sector sums stay constant in the large-hopping mode
    worst = 0.0
    details = []
    for name, params in (("n2_general", dict(a=0.6, b=0.8)),
                         ("n4_single_cavity", dict(a=0.6, b=0.8)),
                         ("n4_two_cavity", dict(a=0.6, b=0.8)),
                         ("n6_symmetric", dict(a=0.6, b=0.8))):
        fam = FAMILIES[name]
        gen = build_large_xi_generator(fam.manifold, xi=1.0)
        x0 = fam.initial_state(**params)
        traj = propagate(gen, x0, np.linspace(0.0, math.pi, 400),
                         times_are_phase=True)
        probs = np.abs(traj.amplitudes) ** 2
        for sector in fam.manifold.sectors:
            if not sector:
                continue
            sums = probs[:, list(sector)].sum(axis=1)
            drift = float(np.max(np.abs(sums - sums[0])))
            worst = max(worst, drift)
        details.append(name)
    rows.append(_row("c9.sector_norms", 9, worst <= 1e-10, "0", _fmt(worst),
                     "1e-10", "excited-count sector probabilities, "
                     + ", ".join(details)))

    # permutation symmetry of the start is preserved exactly
    worst = 0.0
    fam = FAMILIES["n6_symmetric"]
    man6 = fam.manifold
    gen = build_large_xi_generator(man6, xi=1.0)
    x0 = fam.initial_state(a=0.6, b=0.8)
    traj = propagate(gen, x0, np.linspace(0.0, 2.0, 200), times_are_phase=True)
    perms = [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    for perm in perms:
        pm = permutation_matrix(man6, perm)
        worst = max(worst, float(np.max(np.abs(
            traj.amplitudes @ pm.T - traj.amplitudes))))
    rows.append(_row("c9.permutation_symmetry", 9, worst <= 1e-9, "0",
                     _fmt(worst), "1e-9",
                     "totally symmetric start under all five non-identity "
                     "relabelings"))

    # the concentrated six-photon dynamics never returns
    fam = FAMILIES["n6_concentrated"]
    gen = build_large_xi_generator(fam.manifold, xi=1.0)
    x0 = fam.initial_state()
    ts = np.arange(1, 50_001) * (math.pi / 1000.0)
    traj = propagate(gen, x0, ts, times_are_phase=True)
    dist = np.linalg.norm(traj.amplitudes - np.asarray(x0.amplitudes), axis=1)
    dmin = float(dist.min())
    after = dist[ts >= 1.0].min()
    rows.append(_row("c9.aperiodic_no_return", 9, dmin > 1e-3,
                     "> 1e-3 everywhere on (0, 50*pi]", _fmt(dmin), "1e-3",
                     f"closest approach after departure {_fmt(float(after))}"))

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
    ok = devs[0] > devs[1] > devs[2]
    rows.append(_row("c9.large_hopping_limit", 9, ok,
                     "strictly decreasing",
                     " > ".join(_fmt(d) for d in devs), "ordering",
                     "full-vs-reduced deviation at xi = 10, 100, 1000"))
    return rows


# ---------------------------------------------------------------------------


def run_suite(suite: str = "paper", seed: int = 0) -> list[CheckResult]:
    """Run every acceptance check; deterministic for a fixed seed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    landmarks = _landmark_extrema()
    rows: list[CheckResult] = []
    rows += _dimension_checks()
    rows += _generator_checks()
    rows += _spectrum_checks()
    rows += _oracle_checks()
    rows += _extremum_checks(landmarks)
    rows += _special_time_checks()
    rows += _entanglement_checks(seed, landmarks)
    rows += _dwell_checks(seed)
    rows += _invariant_checks(seed)
    return rows


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
