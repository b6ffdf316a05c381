"""Command-line surface: parsing, subcommands, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trimodal import cli
from trimodal.basis import enumerate_manifold
from trimodal.cli import (
    CliError,
    RunConfig,
    emit_config,
    main,
    normalize_init,
    parse_config,
    parse_init,
    parse_phase,
    parse_state_file,
    parse_times,
)
from trimodal.dressed import DressedParams
from trimodal.dynamics import build_full_generator
from trimodal.entanglement import MAX_RESTARTS
from trimodal.evolve import propagate
from trimodal.scan import MAX_SAMPLES
from trimodal.verification import CheckResult


def write_state(path, n, amps):
    path.write_text(json.dumps({"N": n, "amplitudes": amps}))
    return str(path)


def read_trajectory(path):
    """Re-parse an evolve CSV into (times, amplitudes)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_states = (len(header) - 1) // 2
        times, rows = [], []
        for row in reader:
            times.append(float(row[0]))
            vals = np.array([float(v) for v in row[1:]])
            rows.append(vals[0::2] + 1j * vals[1::2])
    return np.array(times), np.array(rows).reshape(-1, n_states)


UNIT6 = [[1.0, 0.0]] + [[0.0, 0.0]] * 5


# ------------------------------------------------------------- small parsers

@pytest.mark.parametrize("text, value", [
    ("0.5", 0.5),
    ("pi", math.pi),
    ("2pi", 2.0 * math.pi),
    ("2*pi", 2.0 * math.pi),
    ("pi/3", math.pi / 3.0),
    ("3*pi/2", 1.5 * math.pi),
    ("-pi", -math.pi),
    ("1e-3", 1e-3),
])
def test_parse_phase(text, value):
    assert parse_phase(text) == pytest.approx(value)


@pytest.mark.parametrize("bad", ["", "pie", "pi/", "one", "2**pi"])
def test_parse_phase_rejects(bad):
    with pytest.raises(CliError):
        parse_phase(bad)


@pytest.mark.parametrize("bad", ["pi/0", "0/0", "1e400", "-1e400*pi"])
def test_parse_phase_rejects_non_finite_values(bad):
    with pytest.raises(CliError, match="not finite"):
        parse_phase(bad)


@pytest.mark.parametrize("argv", [
    ["scan", "--family", "n2_general", "--objective", "|A|^2", "--window", "0:pi/0"],
    ["scan", "--family", "n2_general", "--objective", "|A|^2", "--window", "0:1e400"],
    ["evolve", "--N", "2", "--init", "g0|g0|g2", "--times", "0:pi/0:3"],
    # a finite window whose sample count overflows
    ["scan", "--family", "n2_general", "--objective", "|A|^2", "--window", "0:1e308"],
])
def test_non_finite_phases_exit_with_a_message(argv, capsys):
    assert main(argv) == 1
    assert "not finite" in capsys.readouterr().err


def test_parse_times():
    assert parse_times("0:pi:5") == (0.0, math.pi, 5)
    for bad in ("0:pi", "0:pi:x"):
        with pytest.raises(CliError):
            parse_times(bad)
    # the count and window checks belong to the config, for both forms
    for bad, message in (("0:pi:1", "count must be at least 2"),
                         ("pi:0:4", "window is empty")):
        with pytest.raises(CliError, match=message):
            parse_config({"command": "evolve", "times": bad})


def test_init_mini_language():
    spec = normalize_init("g0|g0|0.6:g4+0.8:e2")
    assert spec[0] == (("g0", 1.0, 0.0),)
    assert spec[2] == (("g4", 0.6, 0.0), ("e2", 0.8, 0.0))
    state = parse_init("g0|g0|0.6:g4+0.8:e2", 4)
    assert state.norm == pytest.approx(1.0)


def test_init_complex_coefficients_survive_the_plus_split():
    spec = normalize_init("g0|g0|0.6:g2+0.8j:e0")
    assert spec[2] == (("g2", 0.6, 0.0), ("e0", 0.0, 0.8))
    state = parse_init("g0|g0|0.6:g2+0.8j:e0", 2)
    man = enumerate_manifold(2)
    assert state.amplitudes[man.index_of(man.basis[0])] == pytest.approx(0.6)
    assert state.amplitudes[man.index_of(man.basis[3])] == pytest.approx(0.8j)


@pytest.mark.parametrize("bad", [
    "g0|g0",                   # two factors
    "g0|g0|g1",                # odd photon number
    "g0|g0|0.5:g2",            # not normalized
    "g0|g0|q:g2",              # bad coefficient
    "g0|g0|",                  # empty factor
    "g2|g2|g0",                # wrong total
])
def test_init_mini_language_rejects(bad):
    with pytest.raises(CliError):
        parse_init(bad, 2)


# -------------------------------------------------------------- state files

def test_state_file_roundtrip(tmp_path):
    path = write_state(tmp_path / "s.json", 2, UNIT6)
    state = parse_state_file(path)
    assert state.manifold.n_total == 2
    assert state.amplitudes[0] == 1.0 + 0.0j


def test_state_file_accepts_bare_reals_and_tiny_norm_slack(tmp_path):
    amps = [1.0 + 5e-8] + [0.0] * 5
    path = write_state(tmp_path / "s.json", 2, amps)
    state = parse_state_file(path)
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_state_file_rejects_norm_breach(tmp_path):
    amps = [[0.9, 0.0]] + [[0.0, 0.0]] * 5
    path = write_state(tmp_path / "s.json", 2, amps)
    with pytest.raises(CliError, match="refusing to renormalize"):
        parse_state_file(path)


def test_state_file_rejects_a_nan_amplitude(tmp_path):
    # json reads the NaN literal as a float
    path = write_state(tmp_path / "s.json", 2, [[1.0, 0.0], [math.nan, 0.0]] + UNIT6[2:])
    with pytest.raises(CliError, match="refusing to renormalize"):
        parse_state_file(path)


def test_state_file_rejects_wrong_count(tmp_path):
    path = write_state(tmp_path / "s.json", 2, UNIT6[:5])
    with pytest.raises(CliError, match="expected 6 entries"):
        parse_state_file(path)


def test_state_file_rejects_bad_entries(tmp_path):
    path = write_state(tmp_path / "s.json", 2, [[1.0, 0.0, 0.0]] + UNIT6[1:])
    with pytest.raises(CliError, match=r"amplitudes\[0\]"):
        parse_state_file(path)
    path = write_state(tmp_path / "b.json", 2, [True] + UNIT6[1:])
    with pytest.raises(CliError, match=r"amplitudes\[0\]"):
        parse_state_file(path)


def test_state_file_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"N": 2,\n  "amplitudes": [,]}')
    with pytest.raises(CliError, match="line 2"):
        parse_state_file(str(path))


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2", 3, 100, None])
def test_state_file_n_must_be_an_allowed_int(tmp_path, capsys, n):
    path = write_state(tmp_path / "s.json", n, UNIT6)
    with pytest.raises(CliError, match="field 'N' must be one of"):
        parse_state_file(path)
    assert main(["entangle", "--state-file", path]) == 1
    assert "field 'N'" in capsys.readouterr().err


def test_state_file_missing_fields(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"N": 2}))
    with pytest.raises(CliError, match="amplitudes"):
        parse_state_file(str(path))
    with pytest.raises(CliError, match="No such file"):
        parse_state_file(str(tmp_path / "missing.json"))


# ------------------------------------------------------------ config objects

def test_run_config_validation():
    for n in (3, 2.0, True, "2"):
        with pytest.raises(CliError, match="N must be 2, 4, or 6"):
            parse_config({"command": "evolve", "N": n})
    with pytest.raises(CliError):
        parse_config({"command": "evolve", "mode": "adiabatic"})
    with pytest.raises(CliError):
        parse_config({"command": "evolve", "nonsense": 1})
    with pytest.raises(CliError):
        parse_config({})
    for xi in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(CliError, match="xi must be positive and finite"):
            parse_config({"command": "evolve", "xi": xi})


@pytest.mark.parametrize("field, value", [
    ("times", [0.0, 1.0]), ("times", [0.0, 1.0, None]), ("times", [0.0, "a", 3]),
    ("window", [1.0]), ("window", [None, 1.0]),
])
def test_config_number_lists_are_input_errors(field, value):
    with pytest.raises(CliError, match=f"config field '{field}' must be"):
        parse_config({"command": "scan", field: value})


@pytest.mark.parametrize("fields, message", [
    ({"times": [0, 1, 1]}, "times count must be at least 2, got 1"),
    ({"times": [1, 0, 5]}, "times window is empty: 1.0 .. 0.0"),
    ({"times": [0, 1, 0]}, "times count must be at least 2, got 0"),
    ({"times": [0, 1, 2.5]}, "config field 'times' must be"),
    ({"mode": "full", "r": "abc"}, "config field 'r' must be int or float"),
    ({"mode": "full", "delta": None}, "config field 'delta' must be int or float"),
    ({"xi": True}, "config field 'xi' must be int or float"),
    ({"output": 1}, "config field 'output' must be str or null"),
    ({"output": 5}, "config field 'output' must be str or null"),
    ({"times": [0, 1e999, 5]}, "times window is not finite: 0.0 .. inf"),
], ids=["count-1", "reversed-window", "count-0", "float-count", "string-r",
        "null-delta", "bool-xi", "output-1", "output-5", "infinite-stop"])
def test_config_file_fields_get_the_checks_of_their_flags(tmp_path, capsys, fields,
                                                          message):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": "evolve", "init": "g0|g0|g2",
                                "times": "0:1:3", **fields}))
    assert main(["evolve", "--config", str(conf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_list_times_run_like_the_flag_form(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": "evolve", "init": "g0|g0|g2",
                                "times": [0, 1, 3]}))
    assert main(["evolve", "--config", str(conf)]) == 0
    from_list = capsys.readouterr().out
    assert main(["evolve", "--init", "g0|g0|g2", "--times", "0:1:3"]) == 0
    assert capsys.readouterr().out == from_list


def test_emit_parse_fixed_point():
    doc = {"command": "evolve", "N": 4, "xi": 2.0, "times": "0:pi:9",
           "init": "g0|g0|0.6:g4+0.8:e2"}
    once = emit_config(parse_config(doc))
    twice = emit_config(parse_config(once))
    assert once == twice
    assert once["N"] == 4
    assert "r" not in once  # defaults are omitted


def test_config_defaults():
    config = parse_config({"command": "basis"})
    assert isinstance(config, RunConfig)
    assert (config.N, config.mode, config.seed) == (2, "large_hopping", 0)


# --------------------------------------------------------------- subcommands

def test_basis_dump(capsys):
    assert main(["basis", "--N", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 39
    assert lines[0] == "index,cavity1,cavity2,cavity3,excited_atoms,photons1,photons2,photons3"
    assert lines[1].startswith("0,")


def test_dynamics_matrix_dump(capsys):
    assert main(["dynamics", "--N", "2", "--mode", "large_hopping"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 7  # six exchange couplings survive
    for line in lines[1:]:
        row, col, re_, im = line.split(",")
        assert float(re_) == pytest.approx(2.0)
        assert float(im) == 0.0
    # every nonzero entry of the N=6 full generator, row-major, exact digits
    assert main(["dynamics", "--N", "6", "--mode", "full"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    mat = build_full_generator(enumerate_manifold(6), DressedParams(r=1.0),
                               xi=1.0).matrix
    expected = [f"{i},{j},{mat[i, j].real:.17g},{mat[i, j].imag:.17g}"
                for i in range(mat.shape[0]) for j in range(mat.shape[1])
                if mat[i, j] != 0]
    assert len(expected) > mat.shape[0]
    assert lines[1:] == expected


def test_dynamics_spectrum(capsys):
    assert main(["dynamics", "--N", "2", "--mode", "full", "--r", "1.0",
                 "--spectrum"]) == 0
    vals = [float(v) for v in capsys.readouterr().out.split()]
    man = enumerate_manifold(2)
    gen = build_full_generator(man, DressedParams(r=1.0), xi=1.0)
    assert vals == pytest.approx(list(np.linalg.eigvalsh(gen.matrix)))


def test_evolve_shared_pair_empties_at_a_third_turn(capsys):
    assert main(["evolve", "--N", "2", "--mode", "large_hopping", "--xi", "1",
                 "--init", "g0|g0|1.0:g2", "--times", "0:pi:4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[0] == "xi_t"
    assert len(lines) == 5
    row = lines[2].split(",")  # xi*t = pi/3
    assert float(row[0]) == pytest.approx(math.pi / 3.0)
    re_b, im_b = float(row[3]), float(row[4])
    re_c, im_c = float(row[5]), float(row[6])
    assert abs(complex(re_b, im_b)) < 1e-12
    assert abs(complex(re_c, im_c)) < 1e-12


def test_evolve_physical_times(capsys):
    # with --times-in t the first column is t and the rate matters again
    assert main(["evolve", "--N", "2", "--xi", "2.0", "--times-in", "t",
                 "--init", "g0|g0|1.0:g2", "--times", "0:pi/6:2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    row = lines[-1].split(",")
    assert float(row[0]) == pytest.approx(math.pi / 6.0)  # xi*t = pi/3
    assert abs(complex(float(row[3]), float(row[4]))) < 1e-12


def test_evolve_trajectory_reparses_bit_identically(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--N", "2", "--mode", "full", "--r", "1.0",
                 "--xi", "1.0", "--init", "g0|g0|1.0:g2",
                 "--times", "0:2:33", "-o", str(out)]) == 0
    times, amps = read_trajectory(str(out))
    man = enumerate_manifold(2)
    gen = build_full_generator(man, DressedParams(r=1.0), xi=1.0)
    fresh = propagate(gen, parse_init("g0|g0|1.0:g2", 2),
                      np.linspace(0.0, 2.0, 33), times_are_phase=True)
    assert np.array_equal(times, np.linspace(0.0, 2.0, 33))
    assert np.array_equal(amps, fresh.amplitudes)


def test_evolve_state_file_sets_the_manifold(tmp_path, capsys):
    amps = [[0.0, 0.0]] * 18
    amps[0] = [1.0, 0.0]
    path = write_state(tmp_path / "s.json", 4, amps)
    assert main(["evolve", "--state-file", path, "--times", "0:1:3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.count("re:") == 18


def test_evolve_errors(tmp_path, capsys):
    assert main(["evolve", "--N", "2", "--init", "g0|g0|1.0:g2"]) == 1
    assert "--times" in capsys.readouterr().err
    assert main(["evolve", "--N", "2", "--times", "0:1:3"]) == 1
    assert "initial state" in capsys.readouterr().err
    path = write_state(tmp_path / "s.json", 2, UNIT6)
    assert main(["evolve", "--state-file", path, "--init", "g0|g0|1.0:g2",
                 "--times", "0:1:3"]) == 1
    assert "not both" in capsys.readouterr().err
    # explicit --N conflicting with the file's manifold
    assert main(["evolve", "--N", "4", "--state-file", path,
                 "--times", "0:1:3"]) == 1
    assert "N=4" in capsys.readouterr().err


def test_evolve_rejects_nan_xi(capsys):
    assert main(["evolve", "--N", "2", "--xi", "nan", "--init", "g0|g0|g2",
                 "--times", "0:1:3"]) == 1
    assert "xi must be positive and finite" in capsys.readouterr().err


def _entangle_output(capsys, *args):
    assert main(["entangle", *args, "--restarts", "4"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert float(out["overlap"]) == pytest.approx(1.0, abs=1e-10)
    assert float(out["entanglement_log2"]) == pytest.approx(0.0, abs=1e-9)
    assert out["converged"] == "true"
    return out


def test_entangle_product_state(capsys):
    # N = 2 is solved in closed form: no sweep, no start
    out = _entangle_output(capsys, "--N", "2", "--init", "g0|e0|g0")
    assert (int(out["sweeps"]), int(out["starts"])) == (0, 0)


def test_entangle_product_state_counts_every_start_at_n4(capsys):
    # every basis start of the five-level qudits plus the restarts
    out = _entangle_output(capsys, "--N", "4", "--init", "g0|e2|g0")
    assert int(out["starts"]) == 125 + 4


def test_entangle_rejects_a_state_file_for_another_n(tmp_path, capsys):
    amps = [[0.0, 0.0]] * 18
    amps[0] = [1.0, 0.0]
    path = write_state(tmp_path / "s4.json", 4, amps)
    assert main(["entangle", "--N", "2", "--state-file", path]) == 1
    assert "state is for N=4, run asks N=2" in capsys.readouterr().err
    assert main(["entangle", "--state-file", path, "--restarts", "1"]) == 0
    assert "overlap=1" in capsys.readouterr().out


def test_entangle_product_start_prints_exact_unit_overlap(capsys):
    assert main(["entangle", "--N", "2", "--init", "g0|g0|g2", "--seed", "0"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert out["overlap"] == "1"
    assert out["entanglement_log2"] == "0"


def test_scan_landmarks_as_csv(capsys):
    assert main(["scan", "--family", "n2_general", "--objective", "|A|^2",
                 "--window", "0:pi"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,xi_t,value,at_endpoint"
    rows = [line.split(",") for line in lines[1:]]
    minima = [r for r in rows if r[0] == "min"]
    assert [float(r[1]) for r in minima] == pytest.approx(
        [math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0], abs=1e-8)
    assert all(float(r[2]) == pytest.approx(1.0 / 9.0) for r in minima)
    endpoint_kinds = {r[0] for r in rows if r[3] == "true"}
    assert endpoint_kinds == {"max"}


def test_scan_errors(capsys):
    assert main(["scan", "--objective", "|A|^2"]) == 1
    assert "--family" in capsys.readouterr().err
    assert main(["scan", "--family", "nope", "--objective", "|A|^2"]) == 1
    assert "unknown family" in capsys.readouterr().err
    assert main(["scan", "--family", "n2_general", "--objective", "|Z|^2"]) == 1
    assert "no label" in capsys.readouterr().err
    assert main(["scan", "--family", "n2_general", "--objective", "|A|^2",
                 "--window", "pi:0"]) == 1
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["entangle", "--N", "2", "--init", "g0|g0|g2", "--restarts", "0"],
    ["scan", "--family", "n2_general", "--objective", "|Z|^2"],
    ["dynamics", "--N", "2", "--mode", "full", "--r", "0"],
    ["evolve", "--N", "2", "--mode", "full", "--delta", "inf",
     "--init", "g0|g0|g2", "--times", "0:1:3"],
], ids=lambda argv: argv[0])
def test_library_value_errors_exit_one_with_a_message(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("trimodal: error: ")
    assert "Traceback" not in err


def test_the_scan_takes_no_grid(tmp_path, capsys):
    # extrema are roots of the objective's derivative: there is no grid to set
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    assert "--grid" not in capsys.readouterr().out
    assert main(["scan", "--family", "n2_general", "--objective", "|A|^2",
                 "--grid", "4096"]) == 1
    assert "unrecognized arguments: --grid 4096" in capsys.readouterr().err
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": "scan", "family": "n2_general",
                                "objective": "|A|^2", "grid": 4096}))
    assert main(["evolve", "--config", str(conf)]) == 1
    assert "unknown field(s) ['grid']" in capsys.readouterr().err


def test_a_stdout_closed_early_exits_one_without_a_traceback():
    # `trimodal evolve ... | head -1`: some 30 MB of rows meet a reader
    # that leaves after the header
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys; from trimodal.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "evolve", "--N", "6", "--init", "g0|g0|g6",
         "--times", "0:1:20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"xi_t,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["scan", "--family", "n2_general", "--objective", "|A|^2", "--window", "0:1e9"],
    # n6_concentrated spreads its frequencies over ~41: ~8.5e6 samples
    ["scan", "--family", "n6_concentrated", "--objective", "|A|^2", "--window", "0:1e5"],
    ["evolve", "--N", "2", "--init", "g0|g0|g2", "--times", "0:1:1000000000000"],
])
def test_sample_counts_above_the_bound_exit_one_before_sampling(argv, capsys, monkeypatch):
    monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("sampled"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("trimodal: error: ")
    assert str(MAX_SAMPLES) in err


def test_restarts_above_the_bound_exit_one_before_drawing(capsys, monkeypatch):
    # 10^12 restarts would ask numpy for about 1.4e14 bytes of starts
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("drew starts"))
    assert main(["entangle", "--N", "2", "--init", "g0|g0|g2",
                 "--restarts", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trimodal: error: ")
    assert str(MAX_RESTARTS) in err


def test_verify_runs_clean_and_deterministically(capsys, monkeypatch):
    monkeypatch.delenv("TRIMODAL_SEED", raising=False)
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "0"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.strip().splitlines()[-1].startswith("summary:")
    assert " 0 fail" in first


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 1
    assert "suite" in capsys.readouterr().err


def test_verify_exit_two_on_gate_failure(capsys, monkeypatch):
    row = CheckResult(check_id="x.fake", status="FAIL", expected="0",
                      measured="1", tolerance="exact", detail="")
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: [row])
    assert main(["verify"]) == 2
    assert "x.fake" in capsys.readouterr().out


# --------------------------------------------------------------- seed wiring

def parse_args(argv):
    return cli.build_parser().parse_args(argv)


def test_env_seed_feeds_the_config(monkeypatch):
    monkeypatch.setenv("TRIMODAL_SEED", "7")
    config, _ = cli._config_from_args(parse_args(["verify"]))
    assert config.seed == 7


def test_seed_flag_beats_the_environment(monkeypatch):
    monkeypatch.setenv("TRIMODAL_SEED", "7")
    config, _ = cli._config_from_args(parse_args(["verify", "--seed", "3"]))
    assert config.seed == 3


def test_bad_env_seed_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("TRIMODAL_SEED", "seven")
    assert main(["verify"]) == 1
    assert "TRIMODAL_SEED" in capsys.readouterr().err


def test_env_seed_lands_in_emitted_config(monkeypatch, capsys):
    monkeypatch.setenv("TRIMODAL_SEED", "9")
    assert main(["evolve", "--times", "0:1:3", "--init", "g0|g0|1.0:g2",
                 "--emit-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 9


# --------------------------------------------------------------- args plumbing

def test_config_file_merges_under_flags(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"command": "evolve", "N": 2, "xi": 2.0,
                                "times": "0:1:3", "init": "g0|g0|1.0:g2"}))
    assert main(["evolve", "--config", str(conf), "--xi", "3.0",
                 "--emit-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["xi"] == 3.0
    assert doc["times"] == [0.0, 1.0, 3]


def test_config_file_errors_read_like_state_file_errors(tmp_path, capsys):
    conf = tmp_path / "run.json"
    for text, message in (('{"N": 2,\n  "xi": }', "line 2"),
                          ("[1, 2]", "expected a JSON object")):
        conf.write_text(text)
        assert main(["evolve", "--config", str(conf)]) == 1
        assert message in capsys.readouterr().err
    assert main(["evolve", "--config", str(tmp_path / "missing.json")]) == 1
    assert "No such file" in capsys.readouterr().err


def test_emit_config_honors_output_and_replays(tmp_path, capsys):
    conf = tmp_path / "run.json"
    data = tmp_path / "traj.csv"
    assert main(["evolve", "--N", "2", "--init", "g0|g0|1.0:g2",
                 "--times", "0:1:3", "--emit-config", "-o", str(conf)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(conf.read_text())
    # -o named the config file, not the replay's data destination
    assert "output" not in doc
    assert main(["evolve", "--config", str(conf), "-o", str(data)]) == 0
    assert main(["evolve", "--N", "2", "--init", "g0|g0|1.0:g2",
                 "--times", "0:1:3"]) == 0
    # read_bytes: read_text would translate the csv writer's \r\n endings
    assert data.read_bytes().decode() == capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert main(["nonsense"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["evolve", "--N", "3", "--times", "0:1:3",
                 "--init", "g0|g0|1.0:g2"]) == 1
    capsys.readouterr()


def test_output_flag_writes_the_file(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    assert main(["basis", "--N", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().strip().splitlines()) == 7
