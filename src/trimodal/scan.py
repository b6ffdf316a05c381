"""Extremum scans, dwell averages, and periodicity of amplitude curves.

Objectives are weighted sums of squared amplitude moduli over a family's
labels, held as exponential-sum data.  Extrema are the roots of their exact
derivative, from Chebyshev proxies polished by Newton steps.  Time averages
come from one closed form over the mode cross-terms, `_time_averages`;
`dwell_times` computes Gauss-Legendre quadrature in the same call, exact up
to rounding for these trigonometric polynomials, from one (nodes, modes)
exp(-i f phase) table shared by its labels, so the two routes can be checked
against each other.  Periods come from rational-commensuration analysis of
the mode frequencies.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .analytic import Family
from .basis import _is_int
from .evolve import _phase_table

MAX_SAMPLES = 1 << 20    # most samples a scan or a CLI time grid may hold
PIECE_RADIANS = 8.0      # most radians g' turns over one scan piece mapped onto [-1, 1]
NEWTON_STEPS = 3         # polishing steps on each root of a scan proxy
ROOT_TOL = 1e-9          # polished scan roots closer than this are one root
PERIOD_TOL = 1e-9         # relative tolerance of a commensuration ratio
MAX_DENOMINATOR = 1000    # largest denominator a commensuration ratio may have
SUPPORT_TOL = 1e-12       # a smaller mode coefficient feeds no label
MAX_NODES = 1024          # most Gauss-Legendre nodes of a dwell route (leggauss is O(n^3))
EXTRA_NODES = 24          # nodes beyond the half-bandwidth, for exactness up to rounding

Representation = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Extremum:
    """One local extremum of a scanned objective, at phase xi*t."""

    phase: float
    value: float
    kind: str               # "min" | "max"
    at_endpoint: bool


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coef>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\s*\*\s*)?"
    r"\|\s*(?P<label>[A-Za-z][A-Za-z0-9_]*)\s*\|\s*\^\s*2\s*$"
)


def parse_objective(expr: str) -> dict[str, float]:
    """Parse 'k*|X|^2 + |Y|^2 + ...' into label weights.

    Coefficients default to 1; repeated labels accumulate.
    """
    weights: dict[str, float] = {}
    for term in expr.split("+"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ValueError(f"cannot parse objective term {term.strip()!r}")
        label = m.group("label")
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        weights[label] = weights.get(label, 0.0) + coef
    return weights


@dataclass(frozen=True, eq=False)
class Objective:
    """phase -> sum_l w_l |X_l(phase)|^2, X_l = sum_f c_fl exp(-i f phase), one
    `coeffs` column per `label_weights` entry; scans read these fields only.
    The fields are kept as read-only copies.  Non-finite fields, or a
    non-finite phase, raise ValueError."""

    freqs: np.ndarray
    coeffs: np.ndarray
    label_weights: np.ndarray

    def __post_init__(self):
        if not all(np.isfinite(field).all()
                   for field in (self.freqs, self.coeffs, self.label_weights)):
            raise ValueError("objective frequencies, coefficients and weights must be finite")
        for name in ("freqs", "coeffs", "label_weights"):
            field = np.array(getattr(self, name))
            field.flags.writeable = False
            object.__setattr__(self, name, field)

    def __call__(self, phases):
        table = _phase_table(np.atleast_1d(phases), self.freqs) @ self.coeffs
        out = (np.abs(table) ** 2) @ self.label_weights
        return out if np.ndim(phases) else float(out[0])


def family_objective(family: Family, weights: Mapping[str, float] | str,
                     **params) -> Objective:
    """phase -> sum_l w_l |X_l|^2 for one family, vectorized over phases."""
    if isinstance(weights, str):
        weights = parse_objective(weights)
    unknown = set(weights) - set(family.labels)
    if unknown:
        raise ValueError(f"{family.name} has no label(s) {sorted(unknown)}")
    freqs, coeffs = family.representation(**params)
    return Objective(freqs, coeffs[:, [family.labels.index(lab) for lab in weights]],
                     np.array([weights[lab] for lab in weights], dtype=float))


def _slopes(freqs: np.ndarray, coeffs: np.ndarray, weights: np.ndarray,
            phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g' = sum_l w_l 2 Re(conj(X_l) X_l') and g'' = sum_l w_l 2 (|X_l'|^2 +
    Re(conj(X_l) X_l'')) of g = sum_l w_l |X_l|^2 at `phases` (any shape)."""
    table = _phase_table(phases, freqs)
    x, dx, ddx = (table @ (k[:, None] * coeffs)
                  for k in (np.ones_like(freqs), -1j * freqs, -freqs * freqs))
    return (2.0 * np.real(x.conj() * dx) @ weights,
            2.0 * (np.abs(dx) ** 2 + np.real(x.conj() * ddx)) @ weights)


def scan_extrema(objective: Objective, lo: float, hi: float) -> list[Extremum]:
    """All local extrema of a `family_objective` on [lo, hi], sorted by phase.

    They are the roots of g'.  On pieces of the window mapped onto [-1, 1],
    where g' turns at most PIECE_RADIANS radians per unit, it is sampled at
    the Chebyshev points of a proxy EXTRA_NODES degrees above that, exact up
    to rounding; the real roots of its colleague matrix get NEWTON_STEPS
    Newton steps on g'/g'', and roots within ROOT_TOL are one.  A root is a
    minimum where g' turns from - to +, a maximum from + to -, and none
    where g' keeps its sign.  Both endpoints are reported (`at_endpoint`),
    with the kind the sign of g' beside them gives.  A constant objective
    has no extrema.  An empty or non-finite window, or a window needing more
    than MAX_SAMPLES samples, raises ValueError before anything is sampled;
    non-finite data was refused when the Objective was built.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"the window [{lo}, {hi}] must be finite and not empty")
    freqs, coeffs = objective.freqs, objective.coeffs
    weights = objective.label_weights
    # g reads frequency gaps only: centring keeps the factors f and f^2 small
    freqs = freqs - 0.5 * (freqs.max() + freqs.min())
    turn = float(freqs.max() - freqs.min()) * (hi - lo) / 2.0
    if not math.isfinite(turn):
        raise ValueError(f"the sample count of the window [{lo}, {hi}] is not finite")
    pieces = max(1, math.ceil(turn / PIECE_RADIANS))
    degree = math.ceil(turn / pieces) + EXTRA_NODES
    if pieces * (degree + 1) > MAX_SAMPLES:
        raise ValueError(f"the window [{lo}, {hi}] needs {pieces * (degree + 1)} samples, "
                         f"more than {MAX_SAMPLES}")
    # numpy.polynomial costs ~10 ms to import; only a scan or a dwell needs it
    from numpy.polynomial import chebyshev

    def slope(at):
        return _slopes(freqs, coeffs, weights, at)[0]

    edges = lo + (hi - lo) * np.arange(pieces + 1) / pieces
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    proxies = chebyshev.chebinterpolate(lambda x: slope(mid + np.outer(x, half)), degree)
    # each term of g' is at most 2 |w_l c_fl f c_gl|: proxy coefficients below
    # 16 roundings of their sum are noise
    noise = 32.0 * np.finfo(float).eps * float(
        np.abs(weights) @ (np.abs(coeffs).sum(axis=0) * (np.abs(freqs) @ np.abs(coeffs))))
    if not (np.abs(proxies) > noise).any():
        return []
    roots = []
    for k in range(pieces):
        x = chebyshev.chebroots(chebyshev.chebtrim(proxies[:, k], noise))
        # a double root can come out as a pair split by ~sqrt(eps)
        x = x[(np.abs(x.imag) <= 1e-6) & (np.abs(x.real) <= 1.0 + 1e-6)].real
        roots.append(mid[k] + half[k] * x)
    roots = np.concatenate(roots)
    for _ in range(NEWTON_STEPS):
        d1, d2 = _slopes(freqs, coeffs, weights, roots)
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0.0)
        roots = np.clip(roots - step, lo, hi)
    roots = np.sort(roots[roots < hi - ROOT_TOL])
    roots = roots[np.diff(roots, prepend=lo) > ROOT_TOL]
    cuts = np.concatenate([[lo], roots, [hi]])
    # the sign of g' on each stretch between consecutive roots
    signs = np.sign(slope(0.5 * (cuts[1:] + cuts[:-1])))
    turns = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    phases = np.concatenate([[lo], roots[turns], [hi]])
    # lo and each turn are minima when g' rises after them, hi when it falls before
    rising = np.concatenate([signs[:1], signs[turns + 1], -signs[-1:]]) > 0.0
    return [Extremum(phase=float(p), value=float(v), kind="min" if up else "max",
                     at_endpoint=p in (lo, hi))
            for p, v, up in zip(phases, np.asarray(objective(phases), dtype=float), rising)]


def _time_averages(freqs: np.ndarray, coeffs: np.ndarray, span: float) -> np.ndarray:
    """Exact mean of |sum_f c_f exp(-i f phase)|^2 over phases [0, span], one
    per (mode, column) coefficient column, from the mode cross-terms:
        sum_fg c_f conj(c_g) * E((f - g) * span),
        E(z) = (exp(-iz) - 1)/(-iz) = exp(-iz/2) sin(z/2)/(z/2),
    the second form free of the cancellation in exp(-iz) - 1 at small z.
    """
    delta = np.subtract.outer(freqs, freqs) * span
    # np.sinc(x) = sin(pi x)/(pi x), and 1 at x = 0
    kernel = _phase_table(delta, 0.5) * np.sinc(delta / (2.0 * np.pi))
    return np.array([np.real(col @ kernel @ col.conj()) for col in coeffs.T])


@dataclass(frozen=True)
class DwellTime:
    """Time-averaged squared modulus of one amplitude over a phase span, by
    two routes: the `closed_form` of the mode cross-terms and Gauss-Legendre
    `quadrature`."""

    closed_form: float
    quadrature: float

    @property
    def value(self) -> float:
        return self.closed_form

    @property
    def route_gap(self) -> float:
        return abs(self.closed_form - self.quadrature)


def dwell_times(family: Family, labels: Sequence[str], span: float = math.pi, *,
                quadrature_points: int | None = None, **params) -> list[DwellTime]:
    """Average of |X_label(phase)|^2 over phases [0, span], both ways, for
    each of `labels` (in order), from one read of the representation.

    The closed form is `_time_averages`.  The quadrature route is
    Gauss-Legendre on `quadrature_points` nodes, 1 to MAX_NODES, by default
    the count exact up to rounding (34 for n2_general over pi); a span whose
    default count is above MAX_NODES raises ValueError.  A route gap above
    ~1e-12 signals a representation bug.
    """
    labels = tuple(labels)
    if not labels:
        raise ValueError("need at least one label")
    for label in labels:
        if label not in family.labels:
            raise ValueError(f"{family.name} has no label {label!r}")
    if not (span > 0 and math.isfinite(span)):
        raise ValueError(f"span must be positive and finite, got {span}")
    if quadrature_points is not None and not (
            _is_int(quadrature_points) and 1 <= quadrature_points <= MAX_NODES):
        raise ValueError(f"quadrature_points must be an integer of 1 to {MAX_NODES} "
                         f"nodes, got {quadrature_points!r}")
    freqs, coeffs = family.representation(**params)
    cols = coeffs[:, [family.labels.index(lab) for lab in labels]]
    if quadrature_points is None:
        # the integrand's highest frequency is max f - min f, so mapped onto
        # [-1, 1] it turns `half` radians per unit; EXTRA_NODES more nodes
        # than that make the rule exact up to rounding
        half = (freqs.max() - freqs.min()) * span / 2.0
        if half > MAX_NODES - EXTRA_NODES:
            raise ValueError(f"a span of {span} needs more than MAX_NODES = "
                             f"{MAX_NODES} Gauss-Legendre nodes")
        quadrature_points = math.ceil(half) + EXTRA_NODES
    # numpy.polynomial costs ~10 ms to import; only the quadrature needs it
    from numpy.polynomial.legendre import leggauss
    x, weights = leggauss(int(quadrature_points))
    table = _phase_table(0.5 * span * (x + 1.0), freqs)
    # the mean over [0, span] is (1/span) * (span/2) * sum_k w_k y_k; each
    # label is its own matrix-vector product, so its bits do not depend on
    # the others
    return [DwellTime(closed_form=float(closed),
                      quadrature=float(0.5 * (weights @ (np.abs(table @ col) ** 2))))
            for closed, col in zip(_time_averages(freqs, cols, span),
                                   np.ascontiguousarray(cols.T))]


def dwell_time(family: Family, label: str, span: float = math.pi, *,
               quadrature_points: int | None = None, **params) -> DwellTime:
    """Average of |X_label(phase)|^2 over phases [0, span]: the one-label
    call of `dwell_times`."""
    return dwell_times(family, [label], span,
                       quadrature_points=quadrature_points, **params)[0]


@dataclass(frozen=True)
class PeriodInfo:
    """Recurrence structure of an exponential-sum solution.

    `state_period`: smallest T > 0 with x(t + T) = x(t) up to a global
    phase; `modulus_period`: smallest T > 0 with |x_l(t + T)| = |x_l(t)|
    for every label.  Either is None when the relevant frequency gaps are
    not rationally related, and 0.0 when nothing oscillates at all.
    """

    state_period: float | None
    modulus_period: float | None
    commensurate: bool


def _rational_gcd(gaps: Sequence[float]) -> float | None:
    """Positive generator g with every gap an integer multiple of g.

    Returns None when the gaps are not rationally related within PERIOD_TOL
    (relative, with denominators up to MAX_DENOMINATOR), and 0.0 for an
    empty set.
    """
    vals = sorted({abs(float(g)) for g in gaps if abs(g) > PERIOD_TOL})
    if not vals:
        return 0.0
    ref = vals[0]
    fracs = []
    for v in vals:
        ratio = v / ref
        fr = Fraction(ratio).limit_denominator(MAX_DENOMINATOR)
        if abs(ratio - float(fr)) > PERIOD_TOL * max(1.0, ratio):
            return None
        fracs.append(fr)
    den_lcm = math.lcm(*(fr.denominator for fr in fracs))
    g = math.gcd(*(fr.numerator * (den_lcm // fr.denominator) for fr in fracs))
    return ref * g / den_lcm


def detect_period(source: Family | Representation, *, xi: float = 1.0,
                  **params) -> PeriodInfo:
    """Period analysis of a family (or a raw (freqs, coeffs) representation).

    Frequency gaps are tested for rational commensuration by continued
    fractions with denominators up to MAX_DENOMINATOR at relative tolerance
    PERIOD_TOL.  Modes with no coefficient above SUPPORT_TOL are dropped.
    The state period uses every gap between contributing modes; the modulus
    period only gaps within each label's support (a label fed by a single
    mode has constant modulus).  Periods are returned in time units
    (phase / |xi|), positive for either sign of xi.  A non-finite frequency
    or coefficient raises ValueError.
    """
    if not (math.isfinite(xi) and xi != 0):
        raise ValueError(f"xi must be finite and nonzero, got {xi!r}")
    if isinstance(source, Family):
        freqs, coeffs = source.representation(**params)
    else:
        freqs, coeffs = source
        freqs = np.asarray(freqs, dtype=float)
        coeffs = np.asarray(coeffs, dtype=complex)
        if params:
            raise ValueError("family parameters require a Family source")
    if not (np.isfinite(freqs).all() and np.isfinite(coeffs).all()):
        raise ValueError("frequencies and coefficients must be finite")
    active = np.abs(coeffs).max(axis=1) > SUPPORT_TOL
    freqs, coeffs = freqs[active], coeffs[active]
    state_gaps = [f - freqs[0] for f in freqs[1:]] if freqs.size else []
    modulus_gaps: list[float] = []
    for col in range(coeffs.shape[1]):
        live = freqs[np.abs(coeffs[:, col]) > SUPPORT_TOL]
        modulus_gaps.extend(f - live[0] for f in live[1:])
    g_state = _rational_gcd(state_gaps)
    g_mod = _rational_gcd(modulus_gaps)

    def period(g: float | None) -> float | None:
        if g is None:
            return None
        return 0.0 if g == 0.0 else 2.0 * math.pi / abs(g * xi)

    return PeriodInfo(state_period=period(g_state),
                      modulus_period=period(g_mod),
                      commensurate=g_state is not None)
