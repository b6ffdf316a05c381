"""Command-line front end.

Subcommands: basis, dynamics, evolve, entangle, scan, verify.  Numeric
output carries 17 significant digits so trajectory CSVs re-parse to the
exact binary doubles that produced them.  Exit codes: 0 success, 1 usage
or input-file problem or a stdout closed by its reader, 2 verification
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from .analytic import FAMILIES
from .basis import StateVector, enumerate_manifold, parse_level, product_state
from .dressed import DressedParams
from .dynamics import build_full_generator, build_large_xi_generator
from .entanglement import MAX_RESTARTS, max_product_overlap
from .evolve import propagate, spectrum
from .scan import MAX_SAMPLES, family_objective, scan_extrema
from .verification import run_suite, render_table

MODES = ("full", "large_hopping")
N_CHOICES = (2, 4, 6)
DEFAULT_SEED = 0


class CliError(Exception):
    """Input problem that should exit 1 with a message, not a traceback.
    `main` reports a library ValueError the same way."""


def _allowed_n(n) -> bool:
    """True for an int (not a bool) in N_CHOICES."""
    return type(n) is int and n in N_CHOICES


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# small parsers

_PI_RE = re.compile(
    r"^(?P<num>[-+]?\d*\.?\d*(?:[eE][-+]?\d+)?)\s*\*?\s*"
    r"(?P<pi>pi)?\s*(?:/\s*(?P<den>\d+\.?\d*))?$")


def parse_phase(text: str) -> float:
    """Parse '0.5', 'pi', '2pi', 'pi/3', '3*pi/2' into a finite float."""
    s = text.strip().lower()
    m = _PI_RE.match(s)
    if not m or (not m.group("num") and not m.group("pi")):
        raise CliError(f"cannot parse number {text!r} (try '0.25', 'pi/3', '2pi')")
    num = m.group("num")
    value = float(num) if num not in ("", "+", "-") else float(num + "1")
    if m.group("pi"):
        value *= math.pi
    if m.group("den"):
        den = float(m.group("den"))
        value = value / den if den else math.inf
    if not math.isfinite(value):
        raise CliError(f"number {text!r} is not finite")
    return value


def parse_times(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"times must be start:stop:count, got {text!r}")
    lo, hi = parse_phase(parts[0]), parse_phase(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise CliError(f"times count must be an integer, got {parts[2]!r}") from None
    return lo, hi, count


def _split_terms(cavity: str) -> list[str]:
    """Split a cavity factor on '+' without cutting 're+imj' coefficients."""
    fragments = cavity.split("+")
    terms: list[str] = []
    for frag in fragments:
        # an imaginary tail like '0.8j:g2' completes the previous fragment,
        # but only while that fragment is still a bare real part (no level
        # separator yet) -- otherwise it starts a new term of its own
        if terms and ":" not in terms[-1] and re.match(r"^\s*[0-9.eE-]*j\s*:", frag):
            terms[-1] = terms[-1] + "+" + frag
        else:
            terms.append(frag)
    return terms


def _parse_coeff(text: str, where: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise CliError(f"{where}: cannot parse coefficient {text!r}") from None


InitSpec = tuple[tuple[tuple[str, float, float], ...], ...]


def normalize_init(spec: str) -> InitSpec:
    """Mini-language 'cav1|cav2|cav3' -> nested ((level, re, im), ...) tuples.

    Each cavity factor is a '+'-joined sum of 'coeff:level' terms; a bare
    level means coefficient 1; coefficients are 're' or 're+imj'.
    """
    cavities = spec.split("|")
    if len(cavities) != 3:
        raise CliError(
            f"init spec needs 3 cavity factors separated by '|', "
            f"got {len(cavities)} in {spec!r}")
    out = []
    for i, cav in enumerate(cavities, start=1):
        terms = []
        for raw in _split_terms(cav):
            term = raw.strip()
            if not term:
                raise CliError(f"cavity {i}: empty term in {cav!r}")
            if ":" in term:
                coeff_text, _, level_text = term.rpartition(":")
                coeff = _parse_coeff(coeff_text, f"cavity {i} term {term!r}")
            else:
                coeff, level_text = 1.0 + 0j, term
            level_text = level_text.strip()
            try:
                parse_level(level_text)
            except ValueError as exc:
                raise CliError(f"cavity {i} term {term!r}: {exc}") from None
            terms.append((level_text, coeff.real, coeff.imag))
        out.append(tuple(terms))
    return tuple(out)


def build_init_state(init: InitSpec, n_total: int) -> StateVector:
    man = enumerate_manifold(n_total)
    factors = [[(parse_level(lv), complex(re_, im)) for lv, re_, im in cav]
               for cav in init]
    try:
        return product_state(man, factors)
    except ValueError as exc:
        raise CliError(f"initial state: {exc}") from None


def parse_init(spec: str, n_total: int) -> StateVector:
    """Parse the mini-language and build the product state in one step."""
    return build_init_state(normalize_init(spec), n_total)


def _read_json_object(path: str) -> dict:
    """The JSON object stored at `path`; a missing file, broken JSON or any
    other top-level value is a CliError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object at the top level")
    return doc


def parse_state_file(path: str) -> StateVector:
    """Load {"N": n, "amplitudes": [[re, im], ...]} as a unit StateVector.

    A norm within 1e-6 of unit is silently renormalized; anything further
    off is rejected with the measured norm.
    """
    doc = _read_json_object(path)
    for field in ("N", "amplitudes"):
        if field not in doc:
            raise CliError(f"{path}: missing field {field!r}")
    # checked before enumerating: the grid grows as the cube of N
    if not _allowed_n(doc["N"]):
        raise CliError(f"{path}: field 'N' must be one of {N_CHOICES}, "
                       f"got {doc['N']!r}")
    man = enumerate_manifold(doc["N"])
    raw = doc["amplitudes"]
    if not isinstance(raw, list) or len(raw) != man.dim:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise CliError(
            f"{path}: field 'amplitudes': expected {man.dim} entries for "
            f"N={man.n_total}, got {got}")
    amps = np.zeros(man.dim, dtype=complex)
    for k, entry in enumerate(raw):
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            amps[k] = float(entry)
        elif (isinstance(entry, list) and len(entry) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in entry)):
            amps[k] = complex(entry[0], entry[1])
        else:
            raise CliError(
                f"{path}: field 'amplitudes[{k}]': expected [re, im] or a "
                f"real number, got {entry!r}")
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= 1e-6:
        raise CliError(
            f"{path}: state norm is {_fmt(norm)}, more than 1e-6 from unit; "
            f"refusing to renormalize")
    return StateVector(man, amps / norm)


# ---------------------------------------------------------------------------
# run configuration

_NONE = type(None)
_REAL = (int, float)
# field -> the exact types its value may have, so a bool is no number; N,
# mode, times_in, times and window have checks of their own
_FIELD_TYPES = {
    "command": (str,), "r": _REAL, "delta": _REAL, "xi": _REAL,
    "init": (tuple, _NONE), "objective": (str, _NONE), "family": (str, _NONE),
    "restarts": (int,), "suite": (str,), "seed": (int,),
    "output": (str, _NONE), "spectrum": (bool,),
}


def _check_numbers(field: str, value, kinds, rule: str) -> None:
    """A CliError stating `rule` unless `value` is None or a tuple whose
    entries have the exact types `kinds` in turn."""
    if value is not None and not (
            type(value) is tuple and len(value) == len(kinds)
            and all(type(v) in kind for kind, v in zip(kinds, value))):
        raise CliError(f"config field {field!r} must be {rule}, got {value!r}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one subcommand invocation needs, in normalized form."""

    command: str
    N: int = 2
    mode: str = "large_hopping"
    r: float = 1.0
    delta: float = 0.0
    xi: float = 1.0
    init: InitSpec | None = None
    times: tuple[float, float, int] | None = None
    times_in: str = "xi_t"
    objective: str | None = None
    family: str | None = None
    window: tuple[float, float] | None = None
    restarts: int = 64
    suite: str = "paper"
    seed: int = DEFAULT_SEED
    output: str | None = None
    spectrum: bool = False

    def __post_init__(self):
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) not in types:
                wanted = " or ".join("null" if t is _NONE else t.__name__ for t in types)
                raise CliError(f"config field {name!r} must be {wanted}, got {value!r}")
        _check_numbers("times", self.times, (_REAL, _REAL, (int,)),
                       "[start, stop, count] with an integer count")
        _check_numbers("window", self.window, (_REAL, _REAL), "[lo, hi]")
        if self.mode not in MODES:
            raise CliError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.times_in not in ("xi_t", "t"):
            raise CliError(
                f"times-in must be 'xi_t' or 't', got {self.times_in!r}")
        if not (math.isfinite(self.xi) and self.xi > 0):
            raise CliError(f"xi must be positive and finite, got {self.xi}")
        if not _allowed_n(self.N):
            raise CliError(f"N must be 2, 4, or 6, got {self.N!r}")
        if self.times is not None:
            lo, hi, count = float(self.times[0]), float(self.times[1]), self.times[2]
            if count < 2:
                raise CliError(f"times count must be at least 2, got {count}")
            if count > MAX_SAMPLES:
                raise CliError(f"times count must be at most {MAX_SAMPLES}, got {count}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise CliError(f"times window is not finite: {lo} .. {hi}")
            if not hi > lo:
                raise CliError(f"times window is empty: {lo} .. {hi}")
            object.__setattr__(self, "times", (lo, hi, count))
        if self.window is not None:
            object.__setattr__(self, "window", tuple(map(float, self.window)))


CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(RunConfig))


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a JSON-style dict (strings allowed for times,
    window, and init)."""
    if not isinstance(doc, dict):
        raise CliError("config must be a JSON object")
    unknown = set(doc) - set(CONFIG_FIELDS)
    if unknown:
        raise CliError(f"config has unknown field(s) {sorted(unknown)}")
    if "command" not in doc:
        raise CliError("config is missing the 'command' field")
    kw = dict(doc)
    if isinstance(kw.get("times"), str):
        kw["times"] = parse_times(kw["times"])
    if isinstance(kw.get("window"), str):
        lo_hi = kw["window"].split(":")
        if len(lo_hi) != 2:
            raise CliError(f"window must be lo:hi, got {kw['window']!r}")
        kw["window"] = (parse_phase(lo_hi[0]), parse_phase(lo_hi[1]))
    for field in ("times", "window"):
        if isinstance(kw.get(field), list):
            kw[field] = tuple(kw[field])
    if isinstance(kw.get("init"), str):
        kw["init"] = normalize_init(kw["init"])
    elif isinstance(kw.get("init"), (list, tuple)):
        try:
            kw["init"] = tuple(
                tuple((str(t[0]), float(t[1]), float(t[2])) for t in cav)
                for cav in kw["init"])
        except (TypeError, ValueError, IndexError):
            raise CliError(
                "config field 'init' must be three lists of "
                "[level, re, im] terms") from None
    try:
        return RunConfig(**kw)
    except TypeError as exc:
        raise CliError(f"bad config: {exc}") from None


def emit_config(config: RunConfig) -> dict:
    """Normalized JSON form; parse_config(emit_config(c)) == c and default
    fields are omitted, so emitting twice is stable byte-for-byte."""
    doc: dict = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        if field.default is not dataclasses.MISSING and value == field.default:
            continue
        if field.name == "init" and value is not None:
            value = [[[lv, re_, im] for lv, re_, im in cav] for cav in value]
        elif isinstance(value, tuple):
            value = list(value)
        doc[field.name] = value
    return doc


def _generator(config: RunConfig):
    man = enumerate_manifold(config.N)
    if config.mode == "full":
        return build_full_generator(
            man, DressedParams(r=config.r, delta=config.delta), xi=config.xi)
    return build_large_xi_generator(man, xi=config.xi)


# ---------------------------------------------------------------------------
# subcommand bodies (each returns the process exit status)


@contextlib.contextmanager
def _output(config: RunConfig):
    """stdout, or the -o file, closed again on the way out."""
    if config.output is None:
        yield sys.stdout
        return
    try:
        out = open(config.output, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{config.output}: {exc.strerror or exc}") from None
    with out:
        yield out


def _initial_state(config: RunConfig, initial: StateVector | None,
                   missing: str) -> StateVector:
    """The --state-file state if one was loaded, else the --init product
    state; `missing` names what is absent when neither was given."""
    if initial is not None:
        if initial.manifold.n_total != config.N:
            raise CliError(
                f"state is for N={initial.manifold.n_total}, run asks N={config.N}")
        return initial
    if config.init is None:
        raise CliError(f"{missing}: pass --init or --state-file")
    return build_init_state(config.init, config.N)


def _cmd_basis(config: RunConfig, initial=None) -> int:
    man = enumerate_manifold(config.N)
    with _output(config) as out:
        writer = csv.writer(out)
        writer.writerow(["index", "cavity1", "cavity2", "cavity3",
                         "excited_atoms", "photons1", "photons2", "photons3"])
        for i, state in enumerate(man.basis):
            writer.writerow(
                [i, *map(str, state.levels), state.excited_count,
                 *(lv.photons for lv in state.levels)])
    return 0


def _cmd_dynamics(config: RunConfig, initial=None) -> int:
    gen = _generator(config)
    with _output(config) as out:
        if config.spectrum:
            for v in np.sort(np.concatenate(spectrum(gen).frequencies)):
                out.write(_fmt(v) + "\n")
        else:
            writer = csv.writer(out)
            writer.writerow(["row", "col", "re", "im"])
            mat = gen.matrix
            for i, j in np.argwhere(mat).tolist():  # row-major order
                z = mat[i, j]
                writer.writerow([i, j, _fmt(z.real), _fmt(z.imag)])
    return 0


def _cmd_evolve(config: RunConfig, initial: StateVector | None = None) -> int:
    if config.times is None:
        raise CliError("evolve needs --times start:stop:count")
    initial = _initial_state(config, initial, "no initial state")
    gen = _generator(config)
    lo, hi, count = config.times
    times = np.linspace(lo, hi, count)
    traj = propagate(gen, initial, times,
                     times_are_phase=(config.times_in == "xi_t"))
    with _output(config) as out:
        writer = csv.writer(out)
        header = [config.times_in]
        for state in initial.manifold.basis:
            header.append(f"re:{state}")
            header.append(f"im:{state}")
        writer.writerow(header)
        for k, t in enumerate(times):
            row = [_fmt(t)]
            for z in traj.amplitudes[k]:
                row.append(_fmt(z.real))
                row.append(_fmt(z.imag))
            writer.writerow(row)
    return 0


def _cmd_entangle(config: RunConfig, initial: StateVector | None = None) -> int:
    initial = _initial_state(config, initial, "no state")
    res = max_product_overlap(initial, restarts=config.restarts,
                              seed=config.seed)
    with _output(config) as out:
        out.write(f"overlap={_fmt(res.overlap)}\n")
        out.write(f"entanglement_log2={_fmt(res.entanglement)}\n")
        out.write(f"converged={str(res.converged).lower()}\n")
        out.write(f"sweeps={res.sweeps}\n")
        out.write(f"starts={res.n_starts}\n")
    return 0


def _cmd_scan(config: RunConfig, initial=None) -> int:
    if config.family is None:
        raise CliError(f"scan needs --family (one of {sorted(FAMILIES)})")
    if config.family not in FAMILIES:
        raise CliError(
            f"unknown family {config.family!r}; choose from {sorted(FAMILIES)}")
    if config.objective is None:
        raise CliError('scan needs --objective, e.g. "|C|^2+|F|^2"')
    family = FAMILIES[config.family]
    lo, hi = config.window if config.window is not None else (0.0, math.pi)
    objective = family_objective(family, config.objective)
    extrema = scan_extrema(objective, lo, hi)
    with _output(config) as out:
        writer = csv.writer(out)
        writer.writerow(["kind", "xi_t", "value", "at_endpoint"])
        for e in extrema:
            writer.writerow([e.kind, _fmt(e.phase), _fmt(e.value),
                             str(e.at_endpoint).lower()])
    return 0


def _cmd_verify(config: RunConfig, initial=None) -> int:
    results = run_suite(suite=config.suite, seed=config.seed)
    with _output(config) as out:
        out.write(render_table(results))
    return 2 if any(r.gate for r in results) else 0


_BODIES = {
    "basis": _cmd_basis,
    "dynamics": _cmd_dynamics,
    "evolve": _cmd_evolve,
    "entangle": _cmd_entangle,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def run(config: RunConfig, initial: StateVector | None = None) -> int:
    """Execute one subcommand; returns the process exit status."""
    body = _BODIES.get(config.command)
    if body is None:
        raise CliError(f"unknown command {config.command!r}")
    return body(config, initial)


# ---------------------------------------------------------------------------
# argument wiring


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_output(p):
    p.add_argument("-o", "--output", default=None,
                   help="write to this path instead of stdout")


def _add_manifold(p):
    p.add_argument("--N", type=int, default=None, choices=N_CHOICES,
                   help="total-count manifold (default 2)")


def _add_params(p):
    p.add_argument("--mode", choices=MODES, default=None,
                   help="full dressed dynamics or the large-hopping limit")
    p.add_argument("--r", type=float, default=None,
                   help="coupling ratio entering the mixing angle")
    p.add_argument("--delta", type=float, default=None,
                   help="detuning in coupling units")
    p.add_argument("--xi", type=float, default=None, help="hopping strength")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trimodal",
                     description="three-cavity photon-pair hopping toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="dump a manifold basis as CSV")
    _add_manifold(p)
    _add_output(p)

    p = sub.add_parser("dynamics", help="dump a generator matrix or spectrum")
    _add_manifold(p)
    _add_params(p)
    p.add_argument("--spectrum", action="store_true",
                   help="print eigenvalues instead of matrix entries")
    _add_output(p)

    p = sub.add_parser("evolve", help="propagate an initial state, CSV out")
    _add_manifold(p)
    _add_params(p)
    p.add_argument("--init", default=None,
                   help='product state, e.g. "g0|g0|0.6:g4+0.8:e2"')
    p.add_argument("--state-file", default=None,
                   help="JSON state file instead of --init")
    p.add_argument("--times", default=None, help="start:stop:count")
    p.add_argument("--times-in", choices=("xi_t", "t"), default=None,
                   dest="times_in",
                   help="time unit: hopping phase xi*t (default) or plain t")
    p.add_argument("--config", default=None,
                   help="JSON RunConfig file; explicit flags override it")
    p.add_argument("--emit-config", action="store_true",
                   help="write the normalized config JSON (to -o or stdout) "
                        "and exit without running")
    _add_output(p)

    p = sub.add_parser("entangle",
                       help="best product overlap / entanglement of a state")
    _add_manifold(p)
    p.add_argument("--init", default=None)
    p.add_argument("--state-file", default=None)
    p.add_argument("--restarts", type=int, default=None,
                   help=f"seeded random sweep starts, 1 to {MAX_RESTARTS}")
    p.add_argument("--seed", type=int, default=None)
    _add_output(p)

    about = "extrema of a family objective over a window, as roots of its exact derivative"
    p = sub.add_parser("scan", help=about, description=about)
    p.add_argument("--family", default=None,
                   help=f"one of {sorted(FAMILIES)}")
    p.add_argument("--objective", default=None,
                   help='label weights, e.g. "|C|^2+|F|^2" or "2*|B|^2"')
    p.add_argument("--window", default=None, help="lo:hi in xi*t (default 0:pi)")
    _add_output(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_output(p)
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("TRIMODAL_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"TRIMODAL_SEED must be an integer, got {raw!r}") from None


def _config_from_args(args: argparse.Namespace) -> tuple[RunConfig, StateVector | None]:
    doc = _read_json_object(args.config) if getattr(args, "config", None) else {}
    doc.setdefault("command", args.command)
    for field in CONFIG_FIELDS:
        value = getattr(args, field, None)
        if value is None or value is False:
            continue  # flag not given; keep the config-file value, if any
        doc[field] = value
    if getattr(args, "seed", None) is None:
        env = _env_seed()
        if env is not None:
            doc["seed"] = env
    initial = None
    if getattr(args, "state_file", None):
        if doc.get("init") is not None:
            raise CliError("pass either --init or --state-file, not both")
        initial = parse_state_file(args.state_file)
        doc.setdefault("N", initial.manifold.n_total)
    return parse_config(doc), initial


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"trimodal: error: {exc}", file=sys.stderr)
        return 1
    try:
        config, initial = _config_from_args(args)
        if getattr(args, "emit_config", False):
            # -o names the config file itself here, so the emitted document
            # must not carry it as the replay's data destination
            with _output(config) as out:
                json.dump(emit_config(dataclasses.replace(config, output=None)),
                          out, indent=2)
                out.write("\n")
            status = 0
        else:
            status = run(config, initial)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (`trimodal evolve ... | head -1`):
        # point stdout at devnull, as the Python signal docs do, so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ValueError) as exc:
        print(f"trimodal: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
