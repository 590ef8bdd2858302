"""Mode-structure arithmetic for multipartite Hilbert spaces.

A system of N modes with dimensions (n_1, ..., n_N) has total dimension
n = n_1 * ... * n_N.  Basis states carry two equivalent labels: a scalar
level in 1..n and a vector index (v_1, ..., v_N) of per-mode labels with
v_m in 1..n_m.  Mode 1 is the most significant digit of the mixed-radix
encoding, and all labels start at 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest total dimension accepted from text input (parse_dims); the
# dense linear algebra of `linalg` is sized for n <= 256.
MAX_N = 256


def _check_int(what: str, value) -> int:
    """`value` as an int, refused unless it is an integer: numpy integers
    pass, a float (even 6.0) is a ValueError naming it, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}={value!r} is not an integer") from None


def _check_seed(seed) -> int:
    """`seed` as an int, refused unless it is a non-negative integer, the
    range numpy's seeding takes."""
    seed = _check_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed={seed} is negative; seeds must be at least 0")
    return seed


@dataclass(frozen=True)
class ModeStructure:
    """An ordered tuple of mode dimensions.

    Parameters
    ----------
    dims : sequence of int
        Per-mode dimensions n_m, each at least 2.

    Attributes
    ----------
    N : int
        Number of modes.
    n : int
        Total dimension, the product of `dims`.
    n_max : int
        Largest mode dimension.
    n_over_max : int
        n / n_max, always an exact integer.
    """

    dims: tuple[int, ...]

    def __init__(self, dims):
        dims = tuple(_check_int("mode dimension", d) for d in dims)
        if len(dims) < 1:
            raise ValueError("a mode structure needs at least one mode")
        for d in dims:
            if d < 2:
                raise ValueError(f"mode dimensions must be >= 2, got {d}")
        object.__setattr__(self, "dims", dims)

    @property
    def N(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @property
    def n_max(self) -> int:
        return max(self.dims)

    @property
    def n_over_max(self) -> int:
        return self.n // self.n_max

    def substructure(self, modes) -> "ModeStructure":
        """Structure formed by the given modes, kept in ascending order."""
        modes = _check_modes(self, modes)
        return ModeStructure(tuple(self.dims[m - 1] for m in modes))

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


@dataclass(frozen=True)
class Bipartition:
    """The extreme bipartition of mode m against all other modes.

    S is the smaller side, B the bigger; n_S * n_B = n, and S_modes and
    B_modes split 1..N.  When the two sides tie, S_modes = (m,).
    """

    m: int
    n_S: int
    n_B: int
    S_modes: tuple[int, ...]
    B_modes: tuple[int, ...]


def parse_dims(text: str) -> ModeStructure:
    """Parse a mode structure from text.

    Accepts "n1xn2x...xnN" (e.g. "2x2x3") and the qubit shorthand "2^N".
    Total dimensions above MAX_N are refused: everything downstream is
    dense, and some searches grow faster than n.
    """
    text = text.strip().lower()
    if not text:
        raise ValueError("empty mode structure")
    if "^" in text:
        base, _, count = text.partition("^")
        try:
            b, c = int(base), int(count)
        except ValueError:
            raise ValueError(f"cannot parse mode structure {text!r}") from None
        if b != 2:
            raise ValueError("shorthand base^N is only supported for base 2")
        if c < 1:
            raise ValueError("2^N needs N >= 1")
        dims = [2] * min(c, MAX_N.bit_length())  # 2^c > MAX_N from here on
    else:
        try:
            dims = [int(part) for part in text.split("x")]
        except ValueError:
            raise ValueError(f"cannot parse mode structure {text!r}") from None
    s = ModeStructure(dims)
    if s.n > MAX_N:
        raise ValueError(f"{text} has total dimension above the limit n <= {MAX_N}")
    return s


def _check_level(s: ModeStructure, level: int) -> int:
    level = _check_int("level", level)
    if not 1 <= level <= s.n:
        raise ValueError(f"level {level} out of range 1..{s.n} for {s}")
    return level


def _check_modes(s: ModeStructure, modes) -> tuple[int, ...]:
    modes = tuple(_check_int("mode", m) for m in modes)
    if not modes:
        raise ValueError("mode list must be nonempty")
    if list(modes) != sorted(set(modes)):
        raise ValueError(f"mode list must be strictly ascending, got {modes}")
    for m in modes:
        if not 1 <= m <= s.N:
            raise ValueError(f"mode {m} out of range 1..{s.N}")
    return modes


def scalar_to_vector(s: ModeStructure, level: int) -> tuple[int, ...]:
    """Decompose a scalar level 1..n into its per-mode labels.

    Mixed radix with mode 1 most significant; labels are 1-based, so
    level 1 maps to the all-ones vector.
    """
    level = _check_level(s, level)
    rem = level - 1
    labels = []
    for d in reversed(s.dims):
        labels.append(rem % d + 1)
        rem //= d
    return tuple(reversed(labels))


def vector_to_scalar(s: ModeStructure, labels) -> int:
    """Recombine per-mode labels into the scalar level (inverse of
    scalar_to_vector)."""
    labels = tuple(_check_int("label", v) for v in labels)
    if len(labels) != s.N:
        raise ValueError(f"expected {s.N} labels, got {len(labels)}")
    level = 0
    for v, d in zip(labels, s.dims):
        if not 1 <= v <= d:
            raise ValueError(f"label {v} out of range 1..{d}")
        level = level * d + (v - 1)
    return level + 1


def bipartition(s: ModeStructure, m: int) -> Bipartition:
    """Extreme bipartition of mode m against all other modes.

    The bigger side has dimension n_B = max(n_m, n/n_m).  On ties the
    focal mode is kept on the S side, i.e. S_modes = (m,).
    """
    (m,) = _check_modes(s, (m,))
    mbar = tuple(k for k in range(1, s.N + 1) if k != m)
    n_m = s.dims[m - 1]
    if n_m > s.n // n_m:
        return Bipartition(m, s.n // n_m, n_m, mbar, (m,))
    return Bipartition(m, n_m, s.n // n_m, (m,), mbar)


def project_level(s: ModeStructure, level: int, modes) -> int:
    """Scalar index of a level's restriction to a subset of modes.

    The restriction lives in the substructure formed by `modes` in
    ascending order.  Projecting onto all modes is the identity.
    """
    modes = _check_modes(s, modes)
    labels = scalar_to_vector(s, level)
    sub = s.substructure(modes)
    return vector_to_scalar(sub, tuple(labels[m - 1] for m in modes))


@lru_cache(maxsize=None)
def _trace_groups(dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Index array `pos` of shape (n_keep, n_drop) for the 1-based modes
    `keep`: pos[a, b] is the 0-based scalar index whose kept labels
    decode to a and dropped labels to b."""
    drop = tuple(m for m in range(1, len(dims) + 1) if m not in keep)
    n_keep = math.prod(dims[m - 1] for m in keep)
    levels = np.arange(math.prod(dims), dtype=np.intp).reshape(dims)
    return levels.transpose([m - 1 for m in keep + drop]).reshape(n_keep, -1)


@lru_cache(maxsize=None)
def _level_table(s: ModeStructure):
    """(labels, masks, W, gathers): the structure's one extreme-bipartition
    layout.  gathers[m-1] = _trace_groups(s.dims, S_modes) of
    `bipartition(s, m)`, shape (n_S, n_B); its column index is a level's
    B_m projection p = project_level(s, lvl, B_modes) - 1.  The rank cap,
    every purity and the certificate tensor read these gathers.

    labels[lvl] = scalar_to_vector(s, lvl).  masks[lvl] sets bit
    m * W + p + 1 per mode, with W = max_m n_B + 1: two levels repeat a
    big-side projection iff their masks share a bit.  Slot 0 is unused,
    and callers validate levels first.
    """
    gathers = tuple(_trace_groups(s.dims, bipartition(s, m).S_modes)
                    for m in range(1, s.N + 1))
    W = max(pos.shape[1] for pos in gathers) + 1
    bits = np.empty((s.n, s.N), dtype=np.intp)
    for m, pos in enumerate(gathers):
        bits[pos, m] = np.arange(pos.shape[1]) + m * W + 1
    labels = np.indices(s.dims).reshape(s.N, -1).T + 1
    return ((None,) + tuple(map(tuple, labels.tolist())),
            (0,) + tuple(sum(1 << b for b in row) for row in bits.tolist()), W, gathers)
