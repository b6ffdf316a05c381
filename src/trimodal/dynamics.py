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
rows embed into the parent basis.
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
    """A generator compressed onto an orthonormal family of parent vectors.

    columns of `embedding` are the orthonormal vectors (parent_dim x dim);
    `matrix` is the compressed Hermitian matrix.  When the family spans an
    invariant subspace the block evolves autonomously.
    """

    matrix: np.ndarray
    embedding: np.ndarray
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
    """Compress a generator onto an orthonormal list of states.

    The states must be orthonormal within 1e-9 (NaN entries are not); they
    need not span an invariant subspace (the compression is then only the
    top-left corner of the dynamics in an adapted basis).
    """
    if isinstance(states, np.ndarray):
        emb = np.ascontiguousarray(states, dtype=complex)
    else:
        emb = np.column_stack([s.amplitudes for s in states]).astype(complex)
    gram = emb.conj().T @ emb
    if not np.max(np.abs(gram - np.eye(emb.shape[1]))) <= 1e-9:
        raise ValueError("projection states must be orthonormal")
    mat = emb.conj().T @ generator.matrix @ emb
    parent_emb = getattr(generator, "embedding", None)
    if parent_emb is not None:
        emb = parent_emb @ emb
    return Block(matrix=mat, embedding=emb, label=label)


def sector_block(generator: Generator, excited_count: int) -> Block:
    """Restriction of a generator to one excited-count sector.

    Exactly invariant for the large-hopping mode, which cannot change any
    atomic flag.
    """
    manifold = generator.manifold
    idx = manifold.sectors[excited_count]
    if not idx:
        raise ValueError(f"sector {excited_count} is empty for total {manifold.n_total}")
    emb = np.zeros((manifold.dim, len(idx)), dtype=complex)
    for col, i in enumerate(idx):
        emb[i, col] = 1.0
    mat = emb.conj().T @ generator.matrix @ emb
    return Block(matrix=mat, embedding=emb, label=f"sector{excited_count}")


def symmetry_blocks(generator: Generator | Block, exchange: tuple[int, int],
                    manifold: Manifold | None = None) -> tuple[Block, Block]:
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
    perm = tuple(perm)

    if isinstance(generator, Generator):
        manifold = generator.manifold
        parent = np.eye(manifold.dim, dtype=complex)
        mat = generator.matrix
        cols = list(range(manifold.dim))
    else:
        if manifold is None:
            raise ValueError("a Block input needs the parent manifold")
        parent = generator.embedding
        mat = generator.matrix
        cols = list(range(parent.shape[1]))

    pmat = permutation_matrix(manifold, perm)
    swap = parent.conj().T @ pmat @ parent
    if not np.max(np.abs(swap @ mat - mat @ swap)) <= 1e-9 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"exchange {exchange} does not commute with this generator")

    rt = 1.0 / math.sqrt(2.0)
    sym_cols, asym_cols = [], []
    seen = set()
    for c in cols:
        if c in seen:
            continue
        image = swap[:, c]
        targets = np.nonzero(np.abs(image) > 1e-12)[0]
        if len(targets) == 1 and targets[0] == c:
            e = np.zeros(len(cols), dtype=complex)
            e[c] = 1.0
            sym_cols.append(e)
            seen.add(c)
        else:
            (d,) = [t for t in targets if t != c]
            e_plus = np.zeros(len(cols), dtype=complex)
            e_plus[c] = rt
            e_plus[d] = rt
            e_minus = np.zeros(len(cols), dtype=complex)
            e_minus[c] = rt
            e_minus[d] = -rt
            sym_cols.append(e_plus)
            asym_cols.append(e_minus)
            seen.update((c, int(d)))

    def _make(cols_list, tag):
        if not cols_list:
            return Block(matrix=np.zeros((0, 0), dtype=complex),
                         embedding=np.zeros((parent.shape[0], 0), dtype=complex), label=tag)
        b = np.column_stack(cols_list)
        return Block(matrix=b.conj().T @ mat @ b, embedding=parent @ b, label=tag)

    return _make(sym_cols, f"sym{i}{j}"), _make(asym_cols, f"asym{i}{j}")


def permutation_symmetric_block(generator: Generator | Block,
                                manifold: Manifold | None = None) -> Block:
    """Compression onto the subspace symmetric under all cavity relabelings.

    Spanned by the normalized permutation sums of basis states; invariant for
    both modes because relabeling cavities is a symmetry of the dynamics.
    """
    if isinstance(generator, Generator):
        manifold = generator.manifold
        parent = np.eye(manifold.dim, dtype=complex)
        mat = generator.matrix
    else:
        if manifold is None:
            raise ValueError("a Block input needs the parent manifold")
        parent = generator.embedding
        mat = generator.matrix

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
    full = np.column_stack(sym_states)
    # Keep only the part lying inside the parent block's span.
    coords = parent.conj().T @ full
    # NaN coordinates are kept, so the containment check sees them
    keep = ~(np.linalg.norm(coords, axis=0) <= 1e-12)
    coords = coords[:, keep]
    lost = np.linalg.norm(full[:, keep] - parent @ coords, axis=0)
    if not np.all(lost <= 1e-9):
        raise ValueError("symmetric states are not contained in the parent block")
    matb = coords.conj().T @ mat @ coords
    return Block(matrix=matb, embedding=parent @ coords, label="fully-symmetric")
