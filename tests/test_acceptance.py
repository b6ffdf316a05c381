"""Acceptance gate: every registered verification check, one line apiece.

The suite in :mod:`trimodal.verification` carries three statuses.  Regular
checks must come back ``pass``.  Checks recording a documented divergence
between the implementation and a quoted target come back ``known-divergence``
and appear here as expected failures -- strictly: if the quoted target ever
starts to hold, the suite flips that row to ``FAIL`` (stale analysis) and the
test fails loudly instead of silently going green.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from references import return_distance, symmetric_start_stay_average
from trimodal import verification
from trimodal.analytic import FAMILIES
from trimodal.verification import (
    FAIL,
    KNOWN,
    PASS,
    CheckResult,
    render_table,
    run_suite,
)

ROWS = run_suite(seed=0)
IDS = [r.check_id for r in ROWS]


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_criterion(row):
    if row.status == KNOWN:
        pytest.xfail(
            f"documented divergence (expected {row.expected}, "
            f"measured {row.measured}, tol {row.tolerance}): {row.detail}"
        )
    assert row.status == PASS, (
        f"{row.check_id}: expected {row.expected}, measured {row.measured}, "
        f"tolerance {row.tolerance} -- {row.detail}"
    )


def test_no_hard_failures():
    assert [r.check_id for r in ROWS if r.status == FAIL] == []
    assert not any(r.gate for r in ROWS)


def test_every_criterion_group_present():
    groups = {r.check_id.split(".")[0] for r in ROWS}
    assert groups == {f"c{k}" for k in range(1, 10)}


def test_check_ids_unique():
    assert len(set(IDS)) == len(IDS)


def test_suite_is_deterministic():
    # byte-for-byte: the rendered report is part of the CLI contract
    assert render_table(run_suite(seed=0)) == render_table(ROWS)


def _assert_golden_bytes(rows, seed):
    # the rendered `trimodal verify --suite paper --seed <seed>` table, kept
    # byte for byte: any change to a printed digit shows up here
    golden = Path(__file__).parent / "data" / f"verify_paper_seed{seed}.txt"
    assert render_table(rows) == golden.read_text(encoding="utf-8")


def test_table_matches_the_golden_bytes():
    _assert_golden_bytes(ROWS, 0)


@pytest.mark.parametrize("seed", [1, 2, 11])
def test_table_matches_the_golden_bytes_at_more_seeds(seed):
    # the seeded rows (random states, restarts) print other digits
    _assert_golden_bytes(run_suite(seed=seed), seed)


def test_render_table_summary_line():
    table = render_table(ROWS)
    lines = table.splitlines()
    assert len(lines) == len(ROWS) + 1
    n_pass = sum(r.status == PASS for r in ROWS)
    n_known = sum(r.status == KNOWN for r in ROWS)
    assert lines[-1] == (
        f"summary: {len(ROWS)} checks: {n_pass} pass, "
        f"{n_known} known-divergence, 0 fail"
    )


def test_gate_property_trips_only_on_fail():
    base = dict(check_id="x.y", expected="0", measured="0",
                tolerance="exact", detail="")
    assert not CheckResult(status=PASS, **base).gate
    assert not CheckResult(status=KNOWN, **base).gate
    assert CheckResult(status=FAIL, **base).gate


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(suite="nonsense", seed=0)


def _statuses(**patches):
    """Row statuses of a seed-0 run with verification's names patched."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(verification, name, value)
        return {r.check_id: r.status for r in run_suite(seed=0)}


def test_a_nan_in_a_running_worst_fails_its_row():
    # a NaN dwell among the 100 random starts must not vanish from the worst
    # margin (the builtin max drops a NaN that is not its first argument)
    def nan_average(*args, **kwargs):
        return np.array([math.nan])

    assert _statuses(_time_averages=nan_average)["c8.dwell_bound"] == FAIL


def test_dwell_bound_margins_are_exact_at_the_suite_starts():
    # from (a, b) the n2_general stay average over [0, pi] is exactly
    # 5|a|^2/9, so each c8.dwell_bound margin 5|a|^2/9 - 2/9 - |a|^2/3 is
    # -2|b|^2/9; checked on the suite's 100 seed-0 starts
    fam = FAMILIES["n2_general"]
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = verification._unit_pair(rng)
        freqs, coeffs = fam.representation(a=a, b=b)
        [stay] = verification._time_averages(
            freqs, coeffs[:, [fam.labels.index("A")]], math.pi)
        margin = stay - (2 / 9 + abs(a) ** 2 / 3)
        assert abs(margin + 2 * abs(b) ** 2 / 9) <= 1e-14


def test_a_complex_spectrum_fails_its_row():
    # a c3 row documents a real spectrum: eigenvalues -2 +- i and 4 must not
    # pass as their real parts {-2, -2, 4}, the exchange triangle's set
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.isnan(verification._real_eigs(rotation)).all()
    spiral = np.zeros((3, 3))
    spiral[:2, :2] = rotation - 2.0 * np.eye(2)
    spiral[2, 2] = 4.0
    triangle = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
    row = verification._ROW["c3.exchange_triangle"]
    assert verification._result(row, verification._spectrum(spiral)).status == FAIL
    assert verification._result(row, verification._spectrum(triangle)).status == PASS


def test_return_distance_equals_the_trajectory_route():
    # c9.aperiodic_no_return reads ||x(t) - x0|| off the return amplitude;
    # over its 50 000 times it is the norm of the propagated trajectory's
    # departure from the start
    fam = FAMILIES["n6_concentrated"]
    ts = np.arange(1, 50_001) * (math.pi / 1000.0)
    got = verification._return_distance(fam, ts)
    assert got.shape == ts.shape
    assert np.max(np.abs(got - return_distance(fam, ts))) <= 1e-12


def test_needs_product_average_equals_the_trapezoid_route():
    # c8.dwell_bound_needs_product averages the stay amplitude over the
    # start's modes in closed form, in place of a 20 001-point trapezoid
    # over its propagated trajectory
    [row] = [r for r in ROWS if r.check_id == "c8.dwell_bound_needs_product"]
    assert abs(float(row.measured) - symmetric_start_stay_average()) <= 1e-12


def test_a_non_finite_measurement_fails_a_claim_row():
    # a claim reads known-divergence only for a finite miss
    statuses = _statuses(_family_deviation=lambda *args, **kwargs: math.nan)
    for check_id in ("c4.sym_photon_triplet", "c4.sym_single_quartet",
                     "c4.sym_pair_doublet", "c4.pair_start"):
        assert statuses[check_id] == FAIL, check_id


def test_stated_values_are_read_from_the_expected_text(monkeypatch):
    # c5.excited_pair_min and c6.single_cavity_pi3 test the numbers their
    # expected texts state, and c5.concentrated_min_components is measured
    # at the time c5.concentrated_min states and names it in its detail, so
    # editing the text moves them
    assert verification._stated("pi/6") == [math.pi / 6]
    rows = dict(verification._ROW)
    for check_id, old, new in [
            ("c5.excited_pair_min", "min 1/9", "min 1/8"),
            ("c5.concentrated_min", "at 1.7500", "at 1.7600"),
            ("c6.single_cavity_pi3", "{18/25, 7/25}", "{17/25, 8/25}")]:
        row = rows[check_id]
        rows[check_id] = dataclasses.replace(row, expected=row.expected.replace(old, new))
    monkeypatch.setattr(verification, "_ROW", rows)
    measured = verification._extrema()[0]
    assert not measured["c5.excited_pair_min"].ok
    amps = FAMILIES["n6_concentrated"].evaluate(1.0, 1.76)
    components = measured["c5.concentrated_min_components"]
    assert components.value == tuple(
        2 * abs(amps[label]) ** 2 for label in ("B", "E", "G", "K"))
    detail = verification._result(rows["c5.concentrated_min_components"], components).detail
    assert "minimum time 1.7600;" in detail
    assert verification._special_times()["c6.single_cavity_pi3"].value == \
        pytest.approx(1 / 25)


def test_the_excited_pair_minimum_sits_at_pi_over_6():
    # the row prints "value at phase, spread ...": the phase is a root of
    # the objective's derivative, placed to rounding
    [row] = [r for r in ROWS if r.check_id == "c5.excited_pair_min"]
    phase = float(row.measured.split(" at ")[1].split(",")[0])
    assert abs(phase - math.pi / 6.0) <= 1e-12
