"""Generators of the restricted three-cavity dynamics.

Two modes are built over a manifold's canonical basis.  The large-hopping
generator keeps only the pair-exchange coupling xi*(a_i^dag^2 a_j^2 + h.c.),
which freezes each atomic configuration and is block diagonal across the
excited-count sectors.  The full generator adds, per cavity, the dressed
two-by-two [[tan^2, tan], [tan, 1]] acting on (|e,n>, |g,n+2>), weighted so
the reference pair n_total - 2 has weight one; this is the complete slow
dynamics in units of the manifold's energy scale.

Symmetry reductions (two-cavity exchange blocks, the fully symmetric block,
sector restrictions) are provided as Block objects that remember how their
rows embed into the manifold basis; `project_onto` builds every one of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisState,
    Excitation,
    CavityLevel,
    Manifold,
    StateVector,
    ALL_PERMUTATIONS,
    enumerate_manifold,
    permutation_matrix,
)
from .dressed import DressedParams, energy_scale, mixing_angle, splitting

HERMITICITY_TOL = 1e-12


def hopping_element(bra: BasisState, ket: BasisState, xi: float = 1.0) -> float:
    """Matrix element of the pair-exchange coupling between two basis states.

    Nonzero only when bra differs from ket by one photon pair moved between
    two cavities with atomic flags untouched; the value is
    xi * sqrt((n+1)*(n+2)) * sqrt(m*(m-1)) for a pair landing on a cavity
    with n photons and leaving one with m photons.
    """
    if bra.total != ket.total:
        return 0.0
    gain = None
    lose = None
    for i, (lb, lk) in enumerate(zip(bra.levels, ket.levels)):
        if lb == lk:
            continue
        if lb.excitation is not lk.excitation:
            return 0.0
        if lb.pairs == lk.pairs + 1:
            if gain is not None:
                return 0.0
            gain = i
        elif lb.pairs == lk.pairs - 1:
            if lose is not None:
                return 0.0
            lose = i
        else:
            return 0.0
    if gain is None or lose is None:
        return 0.0
    n = ket.levels[gain].photons
    m = ket.levels[lose].photons
    return xi * math.sqrt((n + 1) * (n + 2)) * math.sqrt(m * (m - 1))


@dataclass(frozen=True, eq=False)
class Generator:
    """Hermitian matrix generating i d/dt psi = M psi on a manifold."""

    manifold: Manifold
    matrix: np.ndarray
    mode: str
    xi: float
    params: DressedParams | None = None

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.shape != (self.manifold.dim, self.manifold.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {self.manifold.dim}")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITICITY_TOL * max(1.0, np.max(np.abs(mat))):
            raise ValueError("generator must be Hermitian")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.manifold.dim


@dataclass(frozen=True, eq=False)
class Block:
    """A generator compressed onto an orthonormal family of vectors.

    `matrix` is the compressed Hermitian matrix and the columns of
    `embedding` (manifold.dim x dim) are the orthonormal vectors written in
    the basis of `manifold`.  When the family spans an invariant subspace the
    block evolves autonomously.  A Block handed back to `project_onto` takes
    its states in the block's own coordinates (length `dim`).
    """

    matrix: np.ndarray
    embedding: np.ndarray
    manifold: Manifold
    label: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _dressed_pairs(manifold: Manifold, params: DressedParams):
    """Weights and angles for every dressed pair present in the manifold."""
    scale = energy_scale(manifold.n_total, params)
    table = {}
    for n in range(0, manifold.n_total - 1, 2):
        cos, sin = mixing_angle(n, params)
        weight = splitting(n, params) * cos * cos / scale
        table[n] = (weight, sin / cos)
    return table


def _hopping_matrix(manifold: Manifold, xi: float) -> np.ndarray:
    """Pair-exchange matrix, built from each state's at most six pair moves.

    Each coupled pair is filled once, from its lower-indexed state, with
    that state as the bra of `hopping_element`.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    basis = manifold.basis
    mat = np.zeros((manifold.dim, manifold.dim))
    for i, state in enumerate(basis):
        for src, dst in itertools.permutations(range(3), 2):
            if not state.levels[src].pairs:
                continue
            levels = list(state.levels)
            levels[src] = CavityLevel(levels[src].excitation, levels[src].pairs - 1)
            levels[dst] = CavityLevel(levels[dst].excitation, levels[dst].pairs + 1)
            j = manifold.index_of(BasisState(tuple(levels)))
            if j > i:
                mat[i, j] = mat[j, i] = hopping_element(state, basis[j], xi)
    return mat


def build_large_xi_generator(manifold: Manifold, xi: float = 1.0) -> Generator:
    """Pair-exchange-only generator; exact when the hopping dominates."""
    return Generator(manifold=manifold, matrix=_hopping_matrix(manifold, xi),
                     mode="large_hopping", xi=xi)


def build_full_generator(manifold: Manifold, params: DressedParams, xi: float = 1.0) -> Generator:
    """Hopping plus the per-cavity dressed terms, in reference-pair units.

    For each cavity sitting on a dressed pair (|e,n>, |g,n+2>) the projector
    onto the upper dressed vector contributes
    w_n * [[tan^2, tan], [tan, 1]] with w_n the splitting-times-cos^2 ratio
    to the reference pair n_total - 2; |g,0> contributes nothing.
    """
    mat = _hopping_matrix(manifold, xi)
    pairs = _dressed_pairs(manifold, params)
    for i, state in enumerate(manifold.basis):
        for cav, level in enumerate(state.levels):
            if level.excited:
                n = level.photons
                weight, tan = pairs[n]
                mat[i, i] += weight * tan * tan
                partner = list(state.levels)
                partner[cav] = CavityLevel(Excitation.GROUND, level.pairs + 1)
                j = manifold.index_of(BasisState(tuple(partner)))
                mat[i, j] += weight * tan
                mat[j, i] += weight * tan
            elif level.pairs > 0:
                n = level.photons - 2
                weight, _ = pairs[n]
                mat[i, i] += weight
    return Generator(manifold=manifold, matrix=mat, mode="full", xi=xi, params=params)


def project_onto(generator: Generator | Block, states: list[StateVector] | np.ndarray,
                 label: str = "") -> Block:
    """Compress a generator or block onto an orthonormal list of states.

    States are given in the generator's own coordinates: manifold basis
    amplitudes for a Generator, block coordinates for a Block (whose
    embedding is then composed into the result's).  They must be
    orthonormal within 1e-9 (NaN entries are not); they need not span an
    invariant subspace (the compression is then only the top-left corner of
    the dynamics in an adapted basis).  An empty (dim x 0) array gives a
    0 x 0 block.
    """
    if isinstance(states, np.ndarray):
        emb = np.ascontiguousarray(states, dtype=complex)
    else:
        emb = np.column_stack([s.amplitudes for s in states]).astype(complex)
    gram = emb.conj().T @ emb
    if not np.abs(gram - np.eye(emb.shape[1])).max(initial=0.0) <= 1e-9:
        raise ValueError("projection states must be orthonormal")
    mat = emb.conj().T @ generator.matrix @ emb
    parent_emb = getattr(generator, "embedding", None)
    if parent_emb is not None:
        emb = parent_emb @ emb
    return Block(matrix=mat, embedding=emb, manifold=generator.manifold, label=label)


def sector_block(generator: Generator, excited_count: int) -> Block:
    """Restriction of a generator to one excited-count sector.

    Exactly invariant for the large-hopping mode, which cannot change any
    atomic flag.
    """
    manifold = generator.manifold
    idx = manifold.sectors[excited_count]
    if not idx:
        raise ValueError(f"sector {excited_count} is empty for total {manifold.n_total}")
    return project_onto(generator, np.eye(manifold.dim)[:, list(idx)],
                        label=f"sector{excited_count}")


def symmetry_blocks(generator: Generator | Block,
                    exchange: tuple[int, int]) -> tuple[Block, Block]:
    """Split a generator by a two-cavity exchange into (symmetric, antisymmetric).

    The exchange must commute with the generator (checked to 1e-9 relative);
    for a Block input the rows must themselves be spanned by basis states
    closed under the exchange.
    """
    i, j = exchange
    if sorted((i, j)) not in ([1, 2], [1, 3], [2, 3]):
        raise ValueError(f"exchange must name two distinct cavities, got {exchange}")
    perm = [1, 2, 3]
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    swap = permutation_matrix(generator.manifold, tuple(perm))
    parent = getattr(generator, "embedding", None)
    if parent is not None:
        swap = parent.conj().T @ swap @ parent
    mat = generator.matrix
    if not np.max(np.abs(swap @ mat - mat @ swap)) <= 1e-9 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"exchange {exchange} does not commute with this generator")

    # coordinate vectors of the generator, paired up by the exchange
    unit = np.eye(mat.shape[0], dtype=complex)
    rt = 1.0 / math.sqrt(2.0)
    sym_cols, asym_cols = [], []
    seen = set()
    for c in range(mat.shape[0]):
        if c in seen:
            continue
        targets = np.nonzero(np.abs(swap[:, c]) > 1e-12)[0]
        if len(targets) == 1 and targets[0] == c:
            sym_cols.append(unit[c])
            seen.add(c)
        else:
            (d,) = [t for t in targets if t != c]
            sym_cols.append((unit[c] + unit[d]) * rt)
            asym_cols.append((unit[c] - unit[d]) * rt)
            seen.update((c, int(d)))

    def _make(cols, tag):
        states = np.column_stack(cols) if cols else unit[:, :0]
        return project_onto(generator, states, label=tag)

    return _make(sym_cols, f"sym{i}{j}"), _make(asym_cols, f"asym{i}{j}")


def permutation_symmetric_block(generator: Generator | Block) -> Block:
    """Compression onto the subspace symmetric under all cavity relabelings.

    Spanned by the normalized permutation sums of basis states; invariant for
    both modes because relabeling cavities is a symmetry of the dynamics.
    For a Block input only the sums inside its span are kept, and each must
    lie in it entirely.
    """
    manifold = generator.manifold
    sym_states: list[np.ndarray] = []
    seen = set()
    for b in manifold.basis:
        if b in seen:
            continue
        orbit = {b.permuted(p) for p in ALL_PERMUTATIONS}
        seen.update(orbit)
        vec = np.zeros(manifold.dim, dtype=complex)
        for s in orbit:
            vec[manifold.index_of(s)] = 1.0
        sym_states.append(vec / np.linalg.norm(vec))
    states = np.column_stack(sym_states)
    parent = getattr(generator, "embedding", None)
    if parent is not None:
        coords = parent.conj().T @ states
        # NaN coordinates are kept, so the containment check sees them
        keep = ~(np.linalg.norm(coords, axis=0) <= 1e-12)
        coords = coords[:, keep]
        lost = np.linalg.norm(states[:, keep] - parent @ coords, axis=0)
        if not np.all(lost <= 1e-9):
            raise ValueError("symmetric states are not contained in the parent block")
        states = coords
    return project_onto(generator, states, label="fully-symmetric")
