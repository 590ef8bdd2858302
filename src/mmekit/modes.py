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


def _check_int(what: str, value, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int, refused unless it is an integer in least..most
    (None leaves that side open): numpy integers pass, a float (even 6.0)
    or a bool is a ValueError naming it, not truncated or read as 0/1, and
    so is a value out of range, "{what}={n} is below {least}" or "... is
    above {most}".  Every count, size, label and seed (least=0, as numpy's
    seeding takes) of the package is read here."""
    try:
        if not isinstance(value, bool):
            n = operator.index(value)
            if least is not None and n < least:
                raise ValueError(f"{what}={n} is below {least}")
            if most is not None and n > most:
                raise ValueError(f"{what}={n} is above {most}")
            return n
    except TypeError:
        pass
    raise ValueError(f"{what}={value!r} is not an integer")


def _check_real(what: str, value) -> float:
    """`value` as a float, refused unless `float` reads it as a number: a
    bool, a string or an int past the float range (10**400) is a
    ValueError naming it, not read as 0/1, parsed or an OverflowError."""
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{what}={value!r} is not a number")


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
        dims = tuple(_check_int("mode dimension", d, least=2) for d in dims)
        if len(dims) < 1:
            raise ValueError("a mode structure needs at least one mode")
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

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


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
        c = _check_int("qubit count", c, least=1)
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


def _check_levels(s: ModeStructure, levels) -> tuple[int, ...]:
    levels = tuple(_check_int("level", x) for x in levels)
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels contain duplicates: {levels}")
    for lvl in levels:
        if not 1 <= lvl <= s.n:
            raise ValueError(f"level {lvl} of {levels} out of range 1..{s.n} for {s}")
    return tuple(sorted(levels))


def _check_modes(s: ModeStructure, modes) -> tuple[int, ...]:
    modes = tuple(_check_int("mode", m, 1, s.N) for m in modes)
    if not modes:
        raise ValueError("mode list must be nonempty")
    if list(modes) != sorted(set(modes)):
        raise ValueError(f"mode list must be strictly ascending, got {modes}")
    return modes


def scalar_to_vector(s: ModeStructure, level: int) -> tuple[int, ...]:
    """Decompose a scalar level 1..n into its per-mode labels.

    Mixed radix with mode 1 most significant; labels are 1-based, so
    level 1 maps to the all-ones vector.
    """
    level, = _check_levels(s, (level,))
    rem = level - 1
    labels = []
    for d in reversed(s.dims):
        labels.append(rem % d + 1)
        rem //= d
    return tuple(reversed(labels))


def vector_to_scalar(s: ModeStructure, labels) -> int:
    """Recombine per-mode labels into the scalar level (inverse of
    scalar_to_vector)."""
    labels = tuple(labels)
    if len(labels) != s.N:
        raise ValueError(f"expected {s.N} labels, got {len(labels)}")
    level = 0
    for v, d in zip(labels, s.dims):
        level = level * d + _check_int("label", v, 1, d) - 1
    return level + 1


def project_level(s: ModeStructure, level: int, modes) -> int:
    """Scalar index of a level's restriction to a subset of modes.

    The restriction lives in the structure of the dimensions of `modes`,
    a strictly ascending list of modes of `s`.  Projecting onto all
    modes is the identity.
    """
    modes = _check_modes(s, modes)
    labels = scalar_to_vector(s, level)
    sub = ModeStructure(tuple(s.dims[m - 1] for m in modes))
    return vector_to_scalar(sub, tuple(labels[m - 1] for m in modes))


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
    layout, and the one place that picks each mode's small side.  Mode m
    splits the modes into S_m and B_m: S_m = (m,) when n_m**2 <= n, so a
    tie keeps m on the small side, and the other modes otherwise; B_m is
    the rest.  gathers[m-1] = _trace_groups(s.dims, S_m), shape
    (n_S, n_B) with n_S = min(n_m, n/n_m) <= n_B; its column index is a
    level's B_m projection, the 0-based scalar index of its labels on
    B_m.  The rank cap, every purity and the certificate tensor read
    these gathers.

    labels[lvl] = scalar_to_vector(s, lvl).  masks[lvl] sets bit
    m * W + p + 1 per mode, p its B_m projection, with W = max_m n_B + 1:
    two levels repeat a big-side projection iff their masks share a bit.
    Slot 0 is unused, and callers validate levels first.
    """
    gathers = tuple(_trace_groups(s.dims, (m,) if d * d <= s.n else
                                  tuple(k for k in range(1, s.N + 1) if k != m))
                    for m, d in enumerate(s.dims, start=1))
    W = max(pos.shape[1] for pos in gathers) + 1
    bits = np.empty((s.n, s.N), dtype=np.intp)
    for m, pos in enumerate(gathers):
        bits[pos, m] = np.arange(pos.shape[1]) + m * W + 1
    labels = np.indices(s.dims).reshape(s.N, -1).T + 1
    return ((None,) + tuple(map(tuple, labels.tolist())),
            (0,) + tuple(sum(1 << b for b in row) for row in bits.tolist()), W, gathers)
