"""Extremum scans, dwell averages, and periodicity of amplitude curves.

Objectives are weighted sums of squared amplitude moduli over a family's
labels, evaluated from the exponential-sum representation.  Extrema come
from a uniform bracketing grid refined by golden-section search; dwell
averages are computed twice (mode cross-terms in closed form, and composite
Simpson quadrature) so the two routes can be checked against each other;
periods come from rational-commensuration analysis of the mode frequencies.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .analytic import Family

GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def family_objective(family: Family, weights: Mapping[str, float] | str,
                     **params) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized phase -> sum_l w_l |X_l|^2 for one family."""
    if isinstance(weights, str):
        weights = parse_objective(weights)
    unknown = set(weights) - set(family.labels)
    if unknown:
        raise ValueError(f"{family.name} has no label(s) {sorted(unknown)}")
    freqs, coeffs = family.representation(**params)
    cols = np.array([family.labels.index(lab) for lab in weights])
    w = np.array([weights[lab] for lab in weights], dtype=float)
    sub = coeffs[:, cols]

    def objective(phases):
        ph = np.atleast_1d(np.asarray(phases, dtype=float))
        table = np.exp(-1j * np.multiply.outer(ph, freqs)) @ sub
        out = (np.abs(table) ** 2) @ w
        return out if np.ndim(phases) else float(out[0])

    return objective


def _golden(fn: Callable[[float], float], a: float, b: float,
            tol: float) -> float:
    """Golden-section minimum of fn on [a, b] to absolute phase tolerance."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def scan_extrema(objective: Callable, lo: float, hi: float, *,
                 grid: int = 256, tol: float = GOLDEN_TOL) -> list[Extremum]:
    """All local extrema of `objective` on [lo, hi].

    A uniform `grid`-point pass brackets every slope sign change; each
    bracket is refined by golden-section search to phase tolerance `tol`.
    A run of equal samples counts as one point: it is an extremum when it
    sits below (or above) the samples on both sides of it, bracketed by
    those two samples, and none when it is a shoulder on a slope.  Endpoint
    runs that locally dominate their neighbor are reported with
    `at_endpoint` set and no refinement.  Results are sorted by phase.
    """
    if grid < 16:
        raise ValueError(f"grid must be at least 16 points, got {grid}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid)
    ys = np.asarray(objective(xs), dtype=float)
    found: list[Extremum] = []

    def scalar(x: float) -> float:
        return float(np.asarray(objective(np.array([x])))[0])

    # runs of equal samples: run r covers samples starts[r] .. starts[r+1]-1
    starts = np.concatenate([[0], np.flatnonzero(ys[1:] != ys[:-1]) + 1, [grid]])
    for a, b in zip(starts[1:-2], starts[2:-1]):
        left, mid, right = ys[a - 1], ys[a], ys[b]
        if mid < left and mid < right:
            kind, sgn = "min", 1.0
        elif mid > left and mid > right:
            kind, sgn = "max", -1.0
        else:
            continue
        x_star = _golden(lambda x: sgn * scalar(x), xs[a - 1], xs[b], tol)
        found.append(Extremum(phase=x_star, value=scalar(x_star), kind=kind,
                              at_endpoint=False))
    if starts.size > 2:
        for end, beside in ((0, starts[1]), (grid - 1, starts[-2] - 1)):
            found.append(Extremum(phase=float(xs[end]), value=float(ys[end]),
                                  kind="max" if ys[end] > ys[beside] else "min",
                                  at_endpoint=True))
    found.sort(key=lambda e: e.phase)
    return found


@dataclass(frozen=True)
class DwellTime:
    """Time-averaged squared modulus of one amplitude over a phase span."""

    label: str
    span: float
    closed_form: float
    quadrature: float

    @property
    def value(self) -> float:
        return self.closed_form

    @property
    def route_gap(self) -> float:
        return abs(self.closed_form - self.quadrature)


def _simpson(y: np.ndarray, x: np.ndarray) -> np.float64:
    """Composite Simpson over an even number of intervals.

    Term for term the rule scipy.integrate.simpson applies to an odd number
    of samples, so both give the same bits.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                                + y[1::2] * (hsum * (hsum / hprod))
                                + y[2::2] * (2.0 - h0divh1)))


def dwell_time(family: Family, label: str, span: float = math.pi, *,
               quadrature_points: int = 1_000_000, **params) -> DwellTime:
    """Average of |X_label(phase)|^2 over phases [0, span], both ways.

    The closed form evaluates the mode cross-terms exactly:
        sum_fg c_f conj(c_g) * E((f - g) * span),  E(z) = (exp(-iz) - 1)/(-iz).
    The quadrature route is composite Simpson on `quadrature_points`
    intervals, an even integer >= 2; the two agree to ~1e-9 by construction,
    so a larger gap signals a representation bug.
    """
    if label not in family.labels:
        raise ValueError(f"{family.name} has no label {label!r}")
    if span <= 0:
        raise ValueError(f"span must be positive, got {span}")
    if not (isinstance(quadrature_points, (int, np.integer))
            and quadrature_points >= 2 and quadrature_points % 2 == 0):
        raise ValueError("quadrature_points must be an even integer >= 2, "
                         f"got {quadrature_points!r}")
    freqs, coeffs = family.representation(**params)
    col = coeffs[:, family.labels.index(label)]
    delta = np.subtract.outer(freqs, freqs) * span
    safe = np.where(delta == 0.0, 1.0, delta)
    kernel = np.where(delta == 0.0, 1.0,
                      (np.exp(-1j * safe) - 1.0) / (-1j * safe))
    closed = float(np.real(col @ kernel @ col.conj()))
    phases = np.linspace(0.0, span, quadrature_points + 1)
    acc = np.zeros(phases.size, dtype=complex)
    for c, f in zip(col, freqs):
        if c != 0:  # a zero mode would only add +-0
            acc += c * np.exp(-1j * f * phases)
    quad = float(_simpson(np.abs(acc) ** 2, phases) / span)
    return DwellTime(label=label, span=span, closed_form=closed,
                     quadrature=quad)


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


def _rational_gcd(gaps: Sequence[float], tol: float,
                  max_denominator: int) -> float | None:
    """Positive generator g with every gap an integer multiple of g.

    Returns None when the gaps are not rationally related within `tol`
    (relative, with denominators capped), and 0.0 for an empty set.
    """
    vals = sorted({abs(float(g)) for g in gaps if abs(g) > tol})
    if not vals:
        return 0.0
    ref = vals[0]
    fracs = []
    for v in vals:
        ratio = v / ref
        fr = Fraction(ratio).limit_denominator(max_denominator)
        if abs(ratio - float(fr)) > tol * max(1.0, ratio):
            return None
        fracs.append(fr)
    den_lcm = 1
    for fr in fracs:
        den_lcm = den_lcm * fr.denominator // math.gcd(den_lcm, fr.denominator)
    ints = [fr.numerator * (den_lcm // fr.denominator) for fr in fracs]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    return ref * g / den_lcm


def detect_period(source: Family | Representation, *, xi: float = 1.0,
                  tol: float = 1e-9, max_denominator: int = 1000,
                  support_tol: float = 1e-12, **params) -> PeriodInfo:
    """Period analysis of a family (or a raw (freqs, coeffs) representation).

    Frequency gaps are tested for rational commensuration by continued
    fractions with denominators up to `max_denominator` at relative
    tolerance `tol`.  The state period uses every gap between contributing
    modes; the modulus period only gaps within each label's support (a
    label fed by a single mode has constant modulus).  Periods are returned
    in time units (phase / xi).  A non-finite frequency or coefficient
    raises ValueError.
    """
    if not (math.isfinite(xi) and xi != 0):
        raise ValueError(f"xi must be finite and nonzero, got {xi!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not max_denominator >= 1:
        raise ValueError(f"max_denominator must be at least 1, got {max_denominator!r}")
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
    active = np.abs(coeffs).max(axis=1) > support_tol
    freqs, coeffs = freqs[active], coeffs[active]
    state_gaps = [f - freqs[0] for f in freqs[1:]] if freqs.size else []
    modulus_gaps: list[float] = []
    for col in range(coeffs.shape[1]):
        live = freqs[np.abs(coeffs[:, col]) > support_tol]
        modulus_gaps.extend(f - live[0] for f in live[1:])
    g_state = _rational_gcd(state_gaps, tol, max_denominator)
    g_mod = _rational_gcd(modulus_gaps, tol, max_denominator)

    def period(g: float | None) -> float | None:
        if g is None:
            return None
        return 0.0 if g == 0.0 else 2.0 * math.pi / (g * xi)

    return PeriodInfo(state_period=period(g_state),
                      modulus_period=period(g_mod),
                      commensurate=g_state is not None)
