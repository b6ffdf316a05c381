"""Objective parsing, extremum scans, dwell averages, and recurrence analysis."""

import math
import subprocess
import sys

import numpy as np
import pytest

from trimodal.analytic import FAMILIES
from trimodal.scan import (
    _simpson,
    detect_period,
    dwell_time,
    family_objective,
    parse_objective,
    scan_extrema,
)


# ------------------------------------------------------------------ parsing

def test_parse_objective_basic_forms():
    assert parse_objective("|C|^2+|F|^2") == {"C": 1.0, "F": 1.0}
    assert parse_objective("2*|A|^2 + 0.5*|B|^2") == {"A": 2.0, "B": 0.5}
    assert parse_objective(" |A|^2 ") == {"A": 1.0}


def test_parse_objective_accumulates_repeats():
    assert parse_objective("|A|^2+|A|^2") == {"A": 2.0}


@pytest.mark.parametrize("bad", ["", "A", "|A|", "|A|^3", "|A|^2 - |B|^2 +", "2|A|^2 x"])
def test_parse_objective_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_objective(bad)


def test_family_objective_string_and_weights_agree():
    fam = FAMILIES["n2_general"]
    from_str = family_objective(fam, "2*|A|^2+|B|^2")
    from_map = family_objective(fam, {"A": 2.0, "B": 1.0})
    phases = np.linspace(0.0, 1.0, 7)
    assert np.allclose(from_str(phases), from_map(phases))


def test_family_objective_rejects_unknown_labels():
    with pytest.raises(ValueError):
        family_objective(FAMILIES["n2_general"], {"Z": 1.0})


# ------------------------------------------------------------------- scans

def test_scan_finds_interior_extrema_of_a_cosine():
    found = scan_extrema(lambda p: np.cos(np.asarray(p)), 0.0, 2.0 * math.pi,
                         grid=512, tol=1e-10)
    interior = [e for e in found if not e.at_endpoint]
    assert len(interior) == 1
    assert interior[0].kind == "min"
    # value comparisons go flat within ~sqrt(eps) of a quadratic minimum,
    # so the refined phase is only good to ~1e-8 regardless of tol
    assert interior[0].phase == pytest.approx(math.pi, abs=1e-6)
    assert interior[0].value == pytest.approx(-1.0, abs=1e-12)
    ends = [e for e in found if e.at_endpoint]
    assert {e.kind for e in ends} == {"max"}
    assert sorted(e.phase for e in ends) == pytest.approx([0.0, 2.0 * math.pi])


def test_scan_reproduces_exchange_family_landmarks():
    fam = FAMILIES["n2_general"]
    found = scan_extrema(family_objective(fam, "|A|^2"), 0.0, math.pi)
    minima = [e for e in found if e.kind == "min" and not e.at_endpoint]
    maxima = [e for e in found if e.kind == "max" and not e.at_endpoint]
    assert [e.phase for e in minima] == pytest.approx(
        [math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0], abs=1e-6)
    assert all(e.value == pytest.approx(1.0 / 9.0) for e in minima)
    assert [e.phase for e in maxima] == pytest.approx(
        [math.pi / 3.0, 2.0 * math.pi / 3.0], abs=1e-6)


def test_scan_reports_a_grid_tie_once():
    # samples 7 and 8 tie on a plateau wider than one grid step; their two
    # brackets refine to different plateau points, 0.1 apart
    plateau = scan_extrema(lambda p: np.maximum(np.abs(np.asarray(p) - 7.5), 0.6),
                           0.0, 15.0, grid=16)
    assert [e.kind for e in plateau] == ["max", "min", "max"]
    # the same tie in a family objective: two refinements 4.4e-9 apart
    fam = FAMILIES["n4_single_cavity"]
    found = scan_extrema(family_objective(fam, "|C|^2+|F|^2"), 0.0, math.pi, grid=4096)
    near = [e for e in found if abs(e.phase - math.pi / 2.0) < 1e-3]
    assert len(near) == 1 and near[0].kind == "min"


def _sampled(values):
    """Piecewise-linear objective through samples at phases 0, 1, 2, ..."""
    xs = np.arange(len(values), dtype=float)
    return lambda p: np.interp(np.asarray(p, dtype=float), xs, values)


def test_scan_reports_one_extremum_per_flat_run():
    # max(|x - 7|, 1): samples 6, 7 and 8 tie at the minimum
    found = scan_extrema(lambda p: np.maximum(np.abs(np.asarray(p) - 7.0), 1.0),
                         0.0, 15.0, grid=16)
    interior = [e for e in found if not e.at_endpoint]
    assert len(interior) == 1
    assert interior[0].kind == "min"
    assert interior[0].value == 1.0
    assert 6.0 <= interior[0].phase <= 8.0


def test_scan_skips_a_flat_shoulder_on_a_slope():
    values = [5.0, 1.0, 1.0, 0.8, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1,
              0.08, 0.06, 0.04, 0.02, 0.0]
    found = scan_extrema(_sampled(values), 0.0, 15.0, grid=16)
    assert [e for e in found if not e.at_endpoint] == []
    assert [(e.kind, e.phase) for e in found] == [("max", 0.0), ("min", 15.0)]


def test_scan_reports_a_flat_endpoint_run_at_the_endpoint():
    values = [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
              11.0, 12.0, 13.0, 13.0, 13.0]
    found = scan_extrema(_sampled(values), 0.0, 15.0, grid=16)
    assert [(e.kind, e.phase, e.at_endpoint) for e in found] == \
        [("min", 0.0, True), ("max", 15.0, True)]


def test_scan_window_validation():
    with pytest.raises(ValueError):
        scan_extrema(lambda p: np.asarray(p), 1.0, 1.0)
    with pytest.raises(ValueError):
        scan_extrema(lambda p: np.asarray(p), 0.0, 1.0, grid=8)


# ------------------------------------------------------------------- dwell

def test_dwell_averages_of_the_exchange_family():
    fam = FAMILIES["n2_general"]
    stay = dwell_time(fam, "A", quadrature_points=20000)
    assert stay.value == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert stay.route_gap < 1e-9
    for label in ("B", "C"):
        moved = dwell_time(fam, label, quadrature_points=20000)
        assert moved.value == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_dwell_span_controls_the_average():
    fam = FAMILIES["n2_general"]
    # over a twelfth of a turn the cosine has not yet averaged out:
    # mean of (5 + 4 cos 6phi)/9 on [0, pi/12] is 5/9 + 8/(9 pi)
    short = dwell_time(fam, "A", span=math.pi / 12.0, quadrature_points=20000)
    assert short.value == pytest.approx(5.0 / 9.0 + 8.0 / (9.0 * math.pi), abs=1e-10)
    assert short.route_gap < 1e-9


def test_dwell_quadrature_equals_the_all_mode_sum():
    # modes with an exact zero coefficient are skipped; they only add +-0.
    # With an excited admixture the photon labels carry an exact zero on
    # the frozen excited-sector mode.
    fam = FAMILIES["n2_general"]
    freqs, coeffs = fam.representation(a=0.6, b=0.8)
    for k, label in enumerate(fam.labels[:3]):
        col = coeffs[:, k]
        assert (col == 0).any()
        phases = np.linspace(0.0, math.pi, 4097)
        acc = np.zeros(phases.size, dtype=complex)
        for c, f in zip(col, freqs):
            acc += c * np.exp(-1j * f * phases)
        ref = float(_simpson(np.abs(acc) ** 2, phases) / math.pi)
        got = dwell_time(fam, label, quadrature_points=4096, a=0.6, b=0.8)
        assert got.quadrature == ref


def test_dwell_validation():
    fam = FAMILIES["n2_general"]
    with pytest.raises(ValueError):
        dwell_time(fam, "Z")
    with pytest.raises(ValueError):
        dwell_time(fam, "A", span=0.0)


@pytest.mark.parametrize("points", [0, 1, 3, 4097, 4096.0, True])
def test_dwell_rejects_a_non_even_interval_count(points):
    with pytest.raises(ValueError, match="even integer"):
        dwell_time(FAMILIES["n2_general"], "A", quadrature_points=points)


@pytest.mark.parametrize("intervals", [4096, 20000])
@pytest.mark.parametrize("span", [math.pi, math.pi / 12.0])
def test_simpson_matches_scipy_bit_for_bit(intervals, span):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    x = np.linspace(0.0, span, intervals + 1)
    y = np.cos(3.0 * x) ** 2 + np.random.default_rng(intervals).random(x.size)
    assert _simpson(y, x) == scipy_integrate.simpson(y, x=x)


def test_import_pulls_in_no_scipy():
    code = "import sys, trimodal; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ periods

def test_detected_periods_of_the_registered_families():
    expect = {
        "n2_general": math.pi / 3.0,
        "n4_single_cavity": math.pi,
        "n4_two_cavity": math.pi,
        "n6_asymmetric": math.pi,
    }
    for name, period in expect.items():
        info = detect_period(FAMILIES[name])
        assert info.commensurate
        assert info.modulus_period == pytest.approx(period)
        assert info.state_period == pytest.approx(period)


def test_detected_period_matches_the_orbit():
    fam = FAMILIES["n4_two_cavity"]
    T = detect_period(fam).modulus_period
    for phi in (0.13, 0.71, 2.2):
        now = np.abs(fam.evaluate(1.0, phi).values)
        later = np.abs(fam.evaluate(1.0, phi + T).values)
        assert now == pytest.approx(later, abs=1e-9)


def test_incommensurate_spectrum_has_no_period():
    info = detect_period(FAMILIES["n6_concentrated"])
    assert not info.commensurate
    assert info.state_period is None and info.modulus_period is None


def test_raw_representation_periods():
    freqs = np.array([0.0, 2.0, 6.0])
    coeffs = np.eye(3, dtype=complex)
    info = detect_period((freqs, coeffs))
    assert info.state_period == pytest.approx(math.pi)
    # each label rides a single mode: nothing beats, the modulus is constant
    assert info.modulus_period == 0.0
    assert info.commensurate
    mixed = detect_period((freqs, np.ones((3, 2), dtype=complex) / math.sqrt(3)))
    assert mixed.modulus_period == pytest.approx(math.pi)
    irrational = detect_period((np.array([0.0, 1.0, math.sqrt(2.0)]),
                                np.ones((3, 1), dtype=complex) / math.sqrt(3)))
    assert irrational.state_period is None
    assert not irrational.commensurate


@pytest.mark.parametrize("freqs, coeffs", [
    ([0.0, 4.0], [[math.nan], [0.5]]),
    ([math.nan, 4.0], [[0.5], [0.5]]),
])
def test_detect_period_fails_closed_on_non_finite_modes(freqs, coeffs):
    with pytest.raises(ValueError, match="finite"):
        detect_period((np.array(freqs), np.array(coeffs, dtype=complex)))


def test_period_units_scale_with_the_rate():
    half = detect_period(FAMILIES["n2_general"], xi=2.0)
    assert half.modulus_period == pytest.approx(math.pi / 6.0)


@pytest.mark.parametrize("kwargs", [
    dict(xi=0.0), dict(xi=math.nan), dict(xi=math.inf), dict(xi=-math.inf),
    dict(tol=0.0), dict(tol=-1e-9), dict(tol=math.nan), dict(tol=math.inf),
    dict(max_denominator=0), dict(max_denominator=-3),
])
def test_detect_period_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        detect_period(FAMILIES["n2_general"], **kwargs)


def test_raw_representation_rejects_family_parameters():
    freqs = np.array([0.0, 2.0])
    coeffs = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        detect_period((freqs, coeffs), a=1.0)
