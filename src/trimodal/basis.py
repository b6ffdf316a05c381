"""Restricted product bases for three two-photon cavities.

Each cavity holds a two-level atom whose ground/excited transition absorbs or
emits a photon pair, so the local excitation-counting operator assigns n to
|g,n> and n+2 to |e,n>.  Only even photon numbers occur.  The total count is
conserved, which restricts the dynamics to finite manifolds: dimension 6 for
a total of 2, 18 for 4, 38 for 6.  A manifold is stored as its coordinate
table, built by array arithmetic; its `BasisState` objects, excited-count
sectors and excitation patterns are derived from that table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

N_CAVITIES = 3

EVEN_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
ALL_PERMUTATIONS = tuple(itertools.permutations((1, 2, 3)))


class UnsupportedProductError(ValueError):
    """A tensor product of cavity states leaks outside the manifold."""


class Excitation(str, Enum):
    GROUND = "g"
    EXCITED = "e"


@dataclass(frozen=True)
class CavityLevel:
    """One cavity's bare level: atomic flag plus a photon-pair count.

    Photon numbers are stored as pair counts, so odd occupations are not
    representable.  The canonical order (ground before excited, then photon
    number) is the order of a manifold's `levels`; it is used throughout.
    """

    excitation: Excitation
    pairs: int

    def __post_init__(self):
        if self.pairs < 0:
            raise ValueError(f"negative pair count: {self.pairs}")

    @classmethod
    def from_photons(cls, excitation: Excitation | str, photons: int) -> "CavityLevel":
        if photons % 2:
            raise ValueError(f"odd photon number {photons} cannot occur")
        return cls(Excitation(excitation), photons // 2)

    @property
    def photons(self) -> int:
        return 2 * self.pairs

    @property
    def excited(self) -> bool:
        return self.excitation is Excitation.EXCITED

    @property
    def local_total(self) -> int:
        """Eigenvalue of the local conserved counter: n for |g,n>, n+2 for |e,n>."""
        return self.photons + (2 if self.excited else 0)

    def __str__(self) -> str:
        return f"{self.excitation.value}{self.photons}"


def parse_level(text: str) -> CavityLevel:
    """Parse 'g0', 'e2', ... into a CavityLevel."""
    text = text.strip()
    if len(text) < 2 or text[0] not in ("g", "e") or not text[1:].isdigit():
        raise ValueError(f"cannot parse cavity level {text!r}")
    return CavityLevel.from_photons(text[0], int(text[1:]))


@dataclass(frozen=True)
class BasisState:
    """Ordered triple of cavity levels with a definite total count."""

    levels: tuple[CavityLevel, CavityLevel, CavityLevel]

    @property
    def total(self) -> int:
        return sum(lv.local_total for lv in self.levels)

    @property
    def excited_count(self) -> int:
        return sum(lv.excited for lv in self.levels)

    def __str__(self) -> str:
        return "|" + ",".join(str(lv) for lv in self.levels) + ">"


def _local_levels(n_total: int) -> tuple[CavityLevel, ...]:
    """All single-cavity levels with local count <= n_total, in canonical order."""
    ground = [CavityLevel(Excitation.GROUND, k) for k in range(n_total // 2 + 1)]
    excited = [CavityLevel(Excitation.EXCITED, k) for k in range(n_total // 2)]
    return tuple(ground + excited)


@dataclass(frozen=True, eq=False)
class Manifold:
    """Fixed-total subspace, stored as its canonically ordered coordinate table
    `coords`: the read-only (dim, 3) positions in `levels` of each basis state's
    levels.  `basis`, `sectors`, `patterns` and `orbits` are derived from it."""

    n_total: int
    coords: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def levels(self) -> tuple[CavityLevel, ...]:
        """Per-cavity alphabet, shared by all three cavities."""
        return _local_levels(self.n_total)

    @property
    def qudit_dim(self) -> int:
        return len(self.levels)

    @cached_property
    def basis(self) -> tuple[BasisState, ...]:
        """The basis states, one per row of `coords`."""
        return tuple(BasisState(tuple(self.levels[k] for k in row))
                     for row in self.coords.tolist())

    @cached_property
    def sectors(self) -> tuple[tuple[int, ...], ...]:
        """Basis indices by excited-atom count, 0 to 3."""
        count = np.array([lv.excited for lv in self.levels])[self.coords].sum(axis=1)
        return tuple(tuple(np.flatnonzero(count == k).tolist())
                     for k in range(N_CAVITIES + 1))

    @cached_property
    def patterns(self) -> MappingProxyType:
        """Read-only basis indices of each excitation pattern, keyed by the
        excited cavities (numbered 1-3), in ascending key order: the finer
        partition of `sectors` that the pair exchange also conserves."""
        flags = np.array([lv.excited for lv in self.levels])[self.coords]
        keys, group = np.unique(flags, axis=0, return_inverse=True)
        out = {}
        for g, key in enumerate(keys):
            idx = np.flatnonzero(group == g)
            idx.flags.writeable = False
            out[tuple((np.flatnonzero(key) + 1).tolist())] = idx
        return MappingProxyType(dict(sorted(out.items())))

    @cached_property
    def orbits(self) -> np.ndarray:
        """Read-only orbit number of each basis state under the six cavity
        relabelings, numbered in the basis order of each orbit's lowest
        member."""
        lowest = np.min([self.images(perm) for perm in ALL_PERMUTATIONS], axis=0)
        orbits = np.unique(lowest, return_inverse=True)[1]
        orbits.flags.writeable = False
        return orbits

    @cached_property
    def _lookup(self) -> np.ndarray:
        """Read-only (d, d, d) basis index of every position triple, or -1."""
        table = np.full((self.qudit_dim,) * N_CAVITIES, -1, dtype=np.intp)
        table[tuple(self.coords.T)] = np.arange(self.dim)
        table.flags.writeable = False
        return table

    def index_at(self, positions) -> np.ndarray:
        """Basis indices of an (..., 3) array of level-position triples."""
        return self._lookup[tuple(np.moveaxis(np.asarray(positions), -1, 0))]

    def images(self, perm: tuple[int, int, int]) -> np.ndarray:
        """Entry i is the basis index of the image of `basis[i]` under the
        cavity relabeling `perm`: cavity c's level moves to cavity perm[c - 1]."""
        if sorted(perm) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1, 2, 3): {perm}")
        return self.index_at(self.coords[:, np.argsort(perm)])

    def index_of(self, state: BasisState) -> int:
        # every triple of levels with this total is a basis state
        if state.total != self.n_total:
            raise KeyError(f"{state} is not in the total={self.n_total} manifold")
        return int(self.index_at([self.levels.index(lv) for lv in state.levels]))


def _is_int(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def enumerate_manifold(n_total: int) -> Manifold:
    """Enumerate the fixed-total manifold in canonical order.

    Parameters
    ----------
    n_total : even total of the conserved counter (nonnegative), an int or
        numpy integer; every spelling of one total gives the same Manifold.

    Returns
    -------
    Manifold whose `coords` rows are in canonical order: by excited-atom
    count, then lexicographic on the levels with cavity 1 most significant.
    """
    if not _is_int(n_total):
        raise ValueError(f"total count must be an integer, got {n_total!r}")
    return _manifold(int(n_total))


@lru_cache(maxsize=None)
def _manifold(n_total: int) -> Manifold:
    """The manifold of `enumerate_manifold`, built once per int total."""
    if n_total < 0 or n_total % 2:
        raise ValueError(f"total count must be even and nonnegative, got {n_total}")
    levels = _local_levels(n_total)
    local, excited = np.array([(lv.local_total, lv.excited) for lv in levels]).T
    # every position triple, cavity 1 most significant; `levels` is ordered
    # by (excitation, photons), so this order is lexicographic on the levels
    grid = np.indices((len(levels),) * N_CAVITIES).reshape(N_CAVITIES, -1).T
    coords = grid[local[grid].sum(axis=1) == n_total]
    coords = coords[np.argsort(excited[coords].sum(axis=1), kind="stable")]
    coords.flags.writeable = False
    manifold = Manifold(n_total=n_total, coords=coords)
    # derived now: built on a first read among a computation's large
    # temporaries, their small long-lived allocations fragment the heap
    manifold.basis, manifold.sectors, manifold.patterns
    return manifold


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a manifold's canonical basis."""

    manifold: Manifold
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.manifold.dim,):
            raise ValueError(
                f"expected {self.manifold.dim} amplitudes, got shape {amp.shape}"
            )
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def product_state(
    manifold: Manifold,
    factors: list[list[tuple[CavityLevel, complex]]],
) -> StateVector:
    """Tensor product of three normalized single-cavity superpositions.

    Every cross term must carry the manifold's total count; otherwise the
    product is not representable here and an UnsupportedProductError is
    raised.  Each factor must be normalized to 1 within 1e-9.
    """
    if len(factors) != N_CAVITIES:
        raise ValueError(f"need {N_CAVITIES} cavity factors, got {len(factors)}")
    for i, factor in enumerate(factors):
        if not factor:
            raise ValueError(f"cavity {i + 1} factor is empty")
        levels = [lv for lv, _ in factor]
        if len(set(levels)) != len(levels):
            raise ValueError(f"cavity {i + 1} factor repeats a level")
        norm2 = sum(abs(c) ** 2 for _, c in factor)
        if not abs(norm2 - 1.0) <= 1e-9:
            raise ValueError(
                f"cavity {i + 1} factor has squared norm {norm2!r}, expected 1"
            )
    amplitudes = np.zeros(manifold.dim, dtype=complex)
    for (l1, c1), (l2, c2), (l3, c3) in itertools.product(*factors):
        state = BasisState((l1, l2, l3))
        if state.total != manifold.n_total:
            raise UnsupportedProductError(
                f"cross term {state} has total {state.total}, "
                f"outside the total={manifold.n_total} manifold"
            )
        amplitudes[manifold.index_of(state)] = c1 * c2 * c3
    return StateVector(manifold, amplitudes)


def permute_cavities(state: StateVector, perm: tuple[int, int, int]) -> StateVector:
    """Relabel cavities: the amplitude of each basis state moves to its image
    under `perm` (see `Manifold.images`)."""
    out = np.zeros(state.manifold.dim, dtype=complex)
    out[state.manifold.images(perm)] = state.amplitudes
    return StateVector(state.manifold, out)


def symmetrize(state: BasisState) -> StateVector:
    """Normalized sum of a basis state's distinct images under the six
    cavity permutations: its orbit in `Manifold.orbits`, so a fully
    symmetric input comes back with weight 1."""
    manifold = enumerate_manifold(state.total)
    orbit = manifold.orbits == manifold.orbits[manifold.index_of(state)]
    amplitudes = orbit.astype(complex)
    return StateVector(manifold, amplitudes / np.linalg.norm(amplitudes))
