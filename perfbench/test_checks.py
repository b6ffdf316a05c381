"""The benchmark's own checks accept true outputs and reject corrupted ones.

    python3 -m pytest perfbench -q

Each test feeds a check one output the library really produces and one
corrupted copy, so a check that always passes cannot go unnoticed.
"""
from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import trimodal  # noqa: E402
from checks import CheckError  # noqa: E402
from trimodal import cli  # noqa: E402
from trimodal.evolve import mode_expansion, sector_probabilities  # noqa: E402
from tracer import parse_importtime  # noqa: E402
from workloads import (CliStarts, Dynamics, _init_spec, _labels, _product_state,  # noqa: E402
                       _random_product)


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _trajectory(n=4, spec="g0|g2|0.6:g2+0.8:e0", full=False):
    man = trimodal.enumerate_manifold(n)
    init = cli.parse_init(spec, n)
    gen = (trimodal.build_full_generator(man, trimodal.DressedParams(1.3, 0.2)) if full
           else trimodal.build_large_xi_generator(man))
    phases = np.linspace(0.0, 2.0, 201)
    return man, init, gen, trimodal.propagate(gen, init, phases, times_are_phase=not full)


@pytest.mark.parametrize("n,dim", [(2, 6), (4, 18), (6, 38), (10, 102), (14, 198), (20, 402)])
def test_dimension_counts_level_triples(n, dim):
    checks.check_dimension(n, dim)
    checks.check_dimension(n, trimodal.enumerate_manifold(n).dim)
    with pytest.raises(CheckError):
        checks.check_dimension(n, dim - 1)


def test_hopping_matrix_rejects_a_changed_element():
    man = trimodal.enumerate_manifold(6)
    mat = trimodal.build_large_xi_generator(man).matrix.copy()
    checks.check_hopping_matrix(_labels(man), mat)
    i, j = np.argwhere(mat)[0]
    mat[i, j] *= 1.0 + 1e-9
    with pytest.raises(CheckError):
        checks.check_hopping_matrix(_labels(man), mat)


@pytest.mark.parametrize("full", [False, True])
def test_propagation_rejects_a_perturbed_amplitude(full):
    man, init, gen, traj = _trajectory(full=full)
    rows = traj.amplitudes[[50, 100, 200]]
    checks.check_propagation(gen.matrix, init.amplitudes, traj.times[50], rows)
    bad = rows.copy()
    bad[2, 3] += 1e-8
    with pytest.raises(CheckError):
        checks.check_propagation(gen.matrix, init.amplitudes, traj.times[50], bad)


def test_norm_check_rejects_drift():
    _, _, _, traj = _trajectory()
    checks.check_norms(traj.amplitudes)
    bad = traj.amplitudes.copy()
    bad[7] *= 1.0 + 1e-9
    with pytest.raises(CheckError):
        checks.check_norms(bad)


def test_sector_check_rejects_moving_weight():
    man, init, _, traj = _trajectory()
    sectors = sector_probabilities(traj)
    checks.check_sectors(sectors, _labels(man), init.amplitudes)
    bad = {k: v.copy() for k, v in sectors.items()}
    bad[0][10] += 1e-6
    bad[1][10] -= 1e-6
    with pytest.raises(CheckError):
        checks.check_sectors(bad, _labels(man), init.amplitudes)


def test_mode_expansion_check_rejects_a_wrong_coefficient():
    _, init, gen, traj = _trajectory()
    modes = mode_expansion(gen, init.amplitudes)
    checks.check_mode_expansion(modes, traj.times, traj.amplitudes)
    bad = [list(terms) for terms in modes]
    coef, mu = bad[0][0]
    bad[0][0] = (coef + 1e-6, mu)
    with pytest.raises(CheckError):
        checks.check_mode_expansion(bad, traj.times, traj.amplitudes)


def test_basis_csv_check_rejects_missing_and_foreign_rows():
    text = _cli("basis", "--N", "4")
    checks.check_basis_csv(text, 4)
    lines = text.splitlines(keepends=True)
    with pytest.raises(CheckError):
        checks.check_basis_csv("".join(lines[:-1]), 4)
    with pytest.raises(CheckError):
        checks.check_basis_csv(text.replace("g4", "g2", 1), 4)


def test_spectrum_check_rejects_a_shifted_eigenvalue():
    text = _cli("dynamics", "--N", "6", "--spectrum", "--xi", "1.5")
    checks.check_spectrum_text(text, 6, 1.5)
    values = text.split()
    values[5] = repr(float(values[5]) + 1e-6)
    with pytest.raises(CheckError):
        checks.check_spectrum_text("\n".join(values), 6, 1.5)
    with pytest.raises(CheckError):
        checks.check_spectrum_text(text, 6, 1.0)


def test_evolve_check_follows_the_n2_closed_form():
    text = _cli("evolve", "--N", "2", "--init", "g0|g2|g0", "--times", "0:2.5:41")
    checks.check_n2_evolve_csv(text, "|g0,g2,g0>")
    with pytest.raises(CheckError):
        checks.check_n2_evolve_csv(text, "|g0,g0,g2>")
    lines = text.splitlines()
    cells = lines[9].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[9] = ",".join(cells)
    with pytest.raises(CheckError):
        checks.check_n2_evolve_csv("\n".join(lines), "|g0,g2,g0>")


def test_entangle_check_wants_overlap_one_for_a_product_start():
    text = _cli("entangle", "--N", "4", "--init", "g0|0.6:g4+0.8:e2|g0", "--seed", "3")
    checks.check_product_entangle_text(text)
    with pytest.raises(CheckError):
        checks.check_product_entangle_text(re.sub(r"overlap=\S+", "overlap=0.9", text))


def test_scan_check_wants_the_documented_minima():
    text = _cli("scan", "--family", "n4_single_cavity", "--objective", "|C|^2+|F|^2",
                "--window", "0:1.3")
    checks.check_scan_csv(text)
    with pytest.raises(CheckError):
        checks.check_scan_csv(text.replace("0.1959924", "0.1969924"))
    with pytest.raises(CheckError):
        checks.check_scan_csv(_cli("scan", "--family", "n4_single_cavity",
                                   "--objective", "|C|^2+|F|^2", "--window", "0:0.5"))


def test_suite_check_rejects_fail_dropped_and_relabelled_rows():
    rows = trimodal.run_suite("paper", 0)
    ids, statuses = [r.check_id for r in rows], [r.status for r in rows]
    table = trimodal.render_table(rows)
    checks.check_suite(ids, statuses, table, None)
    checks.check_suite(ids, statuses, table, table)
    first_pass = statuses.index("pass")
    relabelled = list(statuses)
    relabelled[first_pass] = "known-divergence"
    for bad_ids, bad_statuses in [
            (ids, statuses[:-1] + ["FAIL"]),       # a failing row
            (ids[:-1], statuses[:-1]),             # a dropped row
            (ids[:-1] + ids[:1], statuses),        # a repeated row
            (ids, relabelled),                     # a pass row turned divergence
            ([], [])]:
        with pytest.raises(CheckError):
            checks.check_suite(bad_ids, bad_statuses, table, None)
    with pytest.raises(CheckError):
        checks.check_suite(ids, statuses, table, table.replace("pass", "pas ", 1))


@pytest.mark.parametrize("seed", range(40))
def test_seeded_inputs_are_valid_for_every_seed(seed):
    workload = CliStarts(seed)
    for argv in workload.commands.values():
        args = cli.build_parser().parse_args(argv)
        cli._config_from_args(args)
    rng = np.random.default_rng(seed)
    for n in (2, 4, 6):
        cli.parse_init(_init_spec(_random_product(rng, n)), n)
    for n in Dynamics.SIZES:
        man = trimodal.enumerate_manifold(n)
        state = _product_state(trimodal, man, _random_product(rng, n))
        assert abs(state.norm - 1.0) < 1e-12


def test_importtime_counts_each_scipy_import_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       584 |      13897 |       scipy",
        "import time:       786 |     733265 |     scipy.integrate",
        "import time:      6687 |     742662 |   trimodal.scan",
        "import time:       120 |       2000 |     scipy.special",
        "import time:       300 |       5000 |   trimodal.other",
        "import time:      1000 |     900000 | trimodal",
    ])
    assert parse_importtime(stderr) == {"trimodal": 0.9, "scipy": 0.735265}
