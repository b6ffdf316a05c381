"""The benchmark's workloads: inputs from a seed, operations, output checks.

A workload is built in set-up (imports, inputs, warm caches) and then hands
out rounds: lists of (label, operation) pairs that are the same in every
round of a run.  `check(label, output)` raises CheckError on a wrong
output; `finish()` runs the checks that are too costly to repeat per round.
Every workload drives trimodal only through its public functions;
`CliStarts` drives its command line.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

from checks import (CheckError, check_basis_csv, check_dimension, check_hopping_matrix,
                    check_mode_expansion, check_n2_evolve_csv, check_norms,
                    check_product_entangle_text, check_propagation, check_scan_csv,
                    check_sectors, check_spectrum_text, check_suite)
from tracer import parse_importtime


def _labels(manifold) -> list[tuple[str, str, str]]:
    return [tuple(str(lv) for lv in b.levels) for b in manifold.basis]


def _random_product(rng, n_total: int) -> list[list[tuple[str, float]]]:
    """Seeded product start on the N manifold, as (level, coefficient) terms.

    Each cavity gets an even share of N; one cavity with a share of at least
    2 holds a superposition of g<share> and e<share-2>, so every cross term
    keeps the total.
    """
    while True:
        a, b = (2 * int(x) for x in rng.integers(0, n_total // 2 + 1, size=2))
        if a + b <= n_total:
            break
    shares = [a, b, n_total - a - b]
    mixed = int(rng.choice([k for k in range(3) if shares[k] >= 2]))
    factors = []
    for k, share in enumerate(shares):
        if k == mixed:
            c = math.cos(rng.uniform(0.2, 1.3))
            factors.append([(f"g{share}", c), (f"e{share - 2}", math.sqrt(1.0 - c * c))])
        elif share >= 2 and rng.random() < 0.5:
            factors.append([(f"e{share - 2}", 1.0)])
        else:
            factors.append([(f"g{share}", 1.0)])
    return factors


def _init_spec(factors) -> str:
    """The CLI's init mini-language for `factors`."""
    return "|".join("+".join(f"{c!r}:{lv}" for lv, c in cav) for cav in factors)


def _product_state(trimodal, manifold, factors):
    return trimodal.product_state(
        manifold, [[(trimodal.parse_level(lv), complex(c)) for lv, c in cav]
                   for cav in factors])


class Workload:
    def finish(self):
        """Checks made once, after the last round."""


class Verify(Workload):
    """Repeated in-process run_suite("paper", seed) calls, each rendered."""

    def __init__(self, seed: int):
        import trimodal
        self.t = trimodal   # looked up per call, so a traced round sees the wrappers
        self.seed = seed
        self.first_table = None

    def round(self):
        return [("run_suite", self._suite)]

    def _suite(self):
        rows = self.t.run_suite("paper", self.seed)
        return [r.check_id for r in rows], [r.status for r in rows], self.t.render_table(rows)

    def check(self, label, output):
        check_ids, statuses, table = output
        check_suite(check_ids, statuses, table, self.first_table)
        if self.first_table is None:
            self.first_table = table


class CliStarts:
    """Cold `python -m trimodal.cli` processes under `-X importtime`, one per
    subcommand at N <= 6, made once at the end of a traced run.  They give
    the import and after-import times of the command line, and their
    outputs are checked like every other output."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.n_basis = int(rng.choice([2, 4, 6]))
        self.n_spectrum = int(rng.choice([2, 4, 6]))
        self.xi = float(round(rng.uniform(0.5, 2.0), 6))
        cavities = ["g0", "g0", "g0"]
        cavities[int(rng.integers(0, 3))] = "g2"
        self.evolve_start = "|" + ",".join(cavities) + ">"
        times = f"0:{rng.uniform(1.0, 3.0):.6f}:{int(rng.integers(33, 66))}"
        n_entangle = int(rng.choice([2, 4, 6]))
        window = f"0:{rng.uniform(1.2, 3.1):.6f}"
        self.commands = {
            "basis": ["basis", "--N", str(self.n_basis)],
            "dynamics": ["dynamics", "--N", str(self.n_spectrum), "--spectrum",
                         "--xi", repr(self.xi)],
            "evolve": ["evolve", "--N", "2", "--init", "|".join(cavities), "--times", times],
            "entangle": ["entangle", "--N", str(n_entangle), "--init",
                         _init_spec(_random_product(rng, n_entangle)), "--seed", str(seed)],
            "scan": ["scan", "--family", "n4_single_cavity", "--objective", "|C|^2+|F|^2",
                     "--window", window],
        }
        # per process: trimodal import, scipy import, wall time after the import
        self.import_s: list[float] = []
        self.scipy_s: list[float] = []
        self.after_import_s: list[float] = []

    def run(self, name):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "trimodal.cli",
                               *self.commands[name]],
                              capture_output=True, text=True, timeout=120, env=os.environ)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"trimodal {name} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        imports = parse_importtime(proc.stderr)
        self.import_s.append(imports["trimodal"])
        self.scipy_s.append(imports["scipy"])
        self.after_import_s.append(wall - imports["trimodal"])
        return proc.stdout

    def check(self, label, output):
        if label == "basis":
            check_basis_csv(output, self.n_basis)
        elif label == "dynamics":
            check_spectrum_text(output, self.n_spectrum, self.xi)
        elif label == "evolve":
            check_n2_evolve_csv(output, self.evolve_start)
        elif label == "entangle":
            check_product_entangle_text(output)
        elif label == "scan":
            check_scan_csv(output)


class Dynamics(Workload):
    """Both generators, a dense-grid propagation, sector sums and the mode
    expansion on the N = 10, 14, 20 manifolds (dim 102, 198, 402)."""

    SIZES = (10, 14, 20)
    GRID = 2001
    CHECK_AT = (500, 1000, 2000)   # grid indices at T/4, T/2, T: each doubles the last

    def __init__(self, seed: int):
        import trimodal
        self.t = trimodal
        rng = np.random.default_rng(seed)
        self.params = trimodal.DressedParams(r=float(rng.uniform(0.5, 2.0)),
                                             delta=float(rng.uniform(-1.0, 1.0)))
        self.phases = np.linspace(0.0, float(rng.uniform(1.5, 2.5)), self.GRID)
        self.inputs = {n: _product_state(trimodal, trimodal.enumerate_manifold(n),
                                         _random_product(rng, n)) for n in self.SIZES}
        self.matrices = {}
        self.rows: dict[tuple, list[np.ndarray]] = {}

    def round(self):
        return [("pass", self._pass)]

    def _pass(self):
        from trimodal.evolve import mode_expansion, sector_probabilities
        out = {}
        for n, init in self.inputs.items():
            man = self.t.enumerate_manifold(n)
            large = self.t.build_large_xi_generator(man)
            full = self.t.build_full_generator(man, self.params)
            traj_large = self.t.propagate(large, init, self.phases, times_are_phase=True)
            traj_full = self.t.propagate(full, init, self.phases)
            sectors = sector_probabilities(traj_large)
            modes = mode_expansion(large, init.amplitudes)
            out[n] = (large, full, traj_large, traj_full, sectors, modes)
        return out

    def check(self, label, output):
        sample = np.arange(0, self.GRID, 100)
        for n, (large, full, traj_large, traj_full, sectors, modes) in output.items():
            init = self.inputs[n]
            check_norms(traj_large.amplitudes)
            check_norms(traj_full.amplitudes)
            check_sectors(sectors, _labels(init.manifold), init.amplitudes)
            check_mode_expansion(modes, self.phases[sample], traj_large.amplitudes[sample])
            for kind, gen, traj in (("large", large, traj_large), ("full", full, traj_full)):
                self.matrices.setdefault((n, kind), gen.matrix.copy())
                self.rows.setdefault((n, kind), []).append(traj.amplitudes[list(self.CHECK_AT)])

    def finish(self):
        for n, init in self.inputs.items():
            check_dimension(n, init.manifold.dim)
            if (n, "large") not in self.matrices:
                continue
            check_hopping_matrix(_labels(init.manifold), self.matrices[(n, "large")])
            for kind in ("large", "full"):
                for rows in self.rows[(n, kind)]:
                    # pass-to-pass rows must agree exactly; check one against Taylor
                    if not np.array_equal(rows, self.rows[(n, kind)][0]):
                        raise CheckError(f"N={n} {kind}: a pass gave different amplitudes")
                check_propagation(self.matrices[(n, kind)], init.amplitudes,
                                  self.phases[self.CHECK_AT[0]], self.rows[(n, kind)][0])


WORKLOADS = {
    "verify": Verify,
    "dynamics": Dynamics,
}
