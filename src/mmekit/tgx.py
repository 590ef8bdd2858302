"""ME TGX tuples: certification, enumeration, and dressed state building.

An ME TGX tuple is a set of L scalar levels, L in L*, whose equal
phaseless superposition is maximally full-N-partite entangled.
Enumeration is a pruned depth-first search over the structure's level
table: its survivors are exactly the ME tuples.  A full read walks only
the sets holding level 1 (`_all_level_sets`): per-mode cyclic label
shifts are local unitaries that keep both search conditions, and the
one that takes level 1 to level h maps those sets onto every set whose
smallest level is h, so numpy builds each later block by a shift, and
sorting puts it back into the DFS's lex order.  Tuples are certified
numerically through the ent itself, in `_me_flags` blocks of equal
superpositions: `_certify` for the level-1 sets of enumerate_me_tuples
(a shift keeps the ent, so their images are not tested again), and
through `mme._certified_set` for rank witnesses and the eigen-tuples of
`mme.construct`, so a set rebuilt under other spectra and frames is
certified once per process; a lone MeTgxTuple built from raw levels,
which `modes._check_levels` checks, is the one-row case of `_certify`,
the one place that refuses a set that is not ME.  A LocalUnitarySet checks
its unitaries for unitarity with one stacked check per size, and
dresses stacks of pure states with one product per mode
(`_apply_per_axis`); a density matrix is dressed through its ensemble.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import and_

import numpy as np

from .entcore import _check_L, ent_rows
from .linalg import BLOCK_AMPLITUDES, PureStateVector, _check_isometry
from .modes import ModeStructure, _check_levels, _level_table

# A state is accepted as ME when its ent is within this of 1.  Equal
# superpositions have exact-rational reduction purities, so this absorbs
# only floating-point roundoff.
ME_TOL = 1e-10


def is_me_tuple(s: ModeStructure, levels) -> bool:
    """Whether the equal phaseless superposition of `levels` is maximally
    entangled (ent equal to 1 within 1e-10)."""
    return _me_flags(s, [_check_levels(s, levels)])[0]


@dataclass(frozen=True)
class MeTgxTuple:
    """A certified ME TGX tuple: L ascending scalar levels whose equal
    superposition has ent 1.  Construction re-certifies, so instances
    are valid by existence."""

    structure: ModeStructure
    levels: tuple[int, ...]

    def __init__(self, structure: ModeStructure, levels):
        levels = _check_levels(structure, levels)
        _certify(structure, [levels])
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "levels", levels)

    @property
    def L(self) -> int:
        return len(self.levels)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.levels) + "}"


def _tuple_levels(s: ModeStructure, t) -> tuple[int, ...]:
    """Ascending levels of raw levels (checked by `modes._check_levels`)
    or of an MeTgxTuple, which must belong to `s`."""
    if isinstance(t, MeTgxTuple):
        if t.structure.dims != s.dims:
            raise ValueError(f"tuple {t} belongs to {t.structure}, not {s}")
        return t.levels
    return _check_levels(s, t)


def _me_level_sets(s: ModeStructure, L: int, level1_only: bool = False):
    """Yield all candidate level sets in lexicographic order; with
    `level1_only`, only the sets holding level 1, the stream's prefix.

    Depth-first search over ascending levels with two prunes, both
    necessary conditions for maximal entanglement of the equal
    superposition:

    * balanced multiplicities: each mode-m label may be used at most
      floor(L/n_m)+1 times and at most mod(L, n_m) labels can reach that
      higher count (the structure of the two MPSRP terms);
    * no two chosen levels may differ in exactly one mode, since such a
      pair leaves a nonzero off-diagonal in that mode's reduction and
      strictly raises its purity above the MPSRP.

    Survivors at depth L are balanced with all-diagonal reductions, so
    the two conditions are also sufficient at L in L*.

    The search runs on int bitsets over levels (bit lvl for level lvl).
    Each node carries its candidates: the later levels still admissible
    under both conditions.  Placing a level drops its one-flip
    neighbours and every label that became full: a label at lo+1 and,
    once mod(L, n_m) labels of mode m sit at lo+1, every label at lo,
    where lo = floor(L/n_m).  A node with fewer candidates than levels
    still needed is abandoned, and so is a node that fails the floor
    bound: some label whose placed count plus its candidates falls
    short of lo.  The bound is necessary: a balanced set has every
    count at most lo+1, at most mod(L, n_m) of them at lo+1, and L in
    all, so every label holds at least lo levels.  Both prunes cut only
    subtrees that yield nothing, so the yield order is that of the
    unpruned search; the rank search's lex-greedy pass relies on it.

    No per-mode room counter is kept: each admissible placement lowers
    a mode's remaining room by exactly one, so it always equals the
    levels still needed.  Nor is the quota-sum bound (per mode, the sum
    over labels of min(quota, candidates) at least the levels still
    needed): it cut no frame beyond the floor bound on 4x4x4x4,
    2x2x2x2x3, 2x3x3x3 or 2x2x3x3.

    `send(drop)`, a bitset of levels, drops them from the rest of the
    search: every open frame ANDs its candidates with the levels left,
    and a frame below a dropped chosen level returns.  Plain iteration
    sends nothing; `mme._lex_clique` sends the mode lines of its tuples.
    `level1_only` starts the search with every later level dropped for
    the root frame alone (stale = L): the root reads it once level 1's
    subtree is done and stops, so level 2's subtree is never walked.
    That stream takes no sends.  `_all_level_sets` builds the rest of
    the stream from it: per-mode cyclic label shifts keep both
    conditions and take level 1 to every level, and each shifted block
    is sorted, so a full read keeps this lex order, which the rank
    search's rooting at the level-1 prefix relies on.
    """
    dims = s.dims
    N, n = s.N, s.n
    lo = [L // d for d in dims]
    extra = [L % d for d in dims]  # how many labels may sit at lo+1
    vecs = _level_table(s)[0]
    # label_bits[m][a]: the levels whose mode-m label is a
    label_bits = [[0] * (d + 1) for d in dims]
    for lvl in range(1, n + 1):
        for m, a in enumerate(vecs[lvl]):
            label_bits[m][a] |= 1 << lvl
    # flips[lvl]: the levels that differ from lvl in exactly one mode
    flips = [0]
    for lvl in range(1, n + 1):
        rows = [label_bits[m][a] for m, a in enumerate(vecs[lvl])]
        line = 0
        for m in range(N):
            line |= reduce(and_, rows[:m] + rows[m + 1:], -1)
        flips.append(line & ~(1 << lvl))
    counts = [[0] * (d + 1) for d in dims]
    at_hi = [0] * N
    # floors: every label that must end with lo >= 1 levels
    floors = [(counts[m], a, lo[m], label_bits[m][a])
              for m, d in enumerate(dims) if lo[m] for a in range(1, d + 1)]
    # placing[lvl]: per mode, the label lvl takes, its counts row and bitset
    placing = [()] + [tuple((m, a, counts[m], label_bits[m][a])
                            for m, a in enumerate(vecs[lvl]))
                      for lvl in range(1, n + 1)]
    chosen: list[int] = []
    # undropped levels; frames with need >= stale must re-read them
    alive, stale = (0b10, L) if level1_only else (-1, L + 1)

    def dfs(cand: int, need: int):
        nonlocal alive, stale
        if need > 1:
            for cm, a, floor, bits in floors:
                if cm[a] + (cand & bits).bit_count() < floor:
                    return
        left = cand.bit_count()
        while left >= need:
            bit = cand & -cand
            cand ^= bit
            left -= 1
            lvl = bit.bit_length() - 1
            if need == 1:
                drop = yield (*chosen, lvl)
                if drop:
                    alive &= ~drop
                    stale = 1
            else:
                sub = cand & ~flips[lvl]
                place = placing[lvl]
                for m, a, cm, bits in place:
                    cm[a] += 1
                    if cm[a] > lo[m]:
                        at_hi[m] += 1
                        sub &= ~bits
                        if at_hi[m] == extra[m]:
                            for b in range(1, len(cm)):
                                if cm[b] == lo[m]:
                                    sub &= ~label_bits[m][b]
                    elif cm[a] == lo[m] and at_hi[m] == extra[m]:
                        sub &= ~bits
                chosen.append(lvl)
                yield from dfs(sub, need - 1)
                chosen.pop()
                for m, a, cm, _ in place:
                    if cm[a] > lo[m]:
                        at_hi[m] -= 1
                    cm[a] -= 1
            if need >= stale:
                stale = need + 1
                if any(not alive >> c & 1 for c in chosen):
                    return
                cand &= alive
                left = cand.bit_count()

    yield from dfs((1 << (n + 1)) - 2, L)


def _all_level_sets(s: ModeStructure, L: int):
    """The `_me_level_sets` stream, built from its level-1 prefix.

    Per-mode cyclic label shifts act simply transitively on levels, and
    both conditions of the search (balanced label counts, no one-flip
    pair) are invariant under per-mode label permutations, as the ent
    is.  So the sets whose smallest level is h are exactly the images
    under the shift that takes level 1 to h (a_m -> a_m + label_m(h) - 1
    mod n_m, mode by mode) of the sets holding level 1 whose image has
    no level below h.  The DFS walks only level 1's subtree, which
    holds L/n of the sets; each later block is shifted in numpy one h
    at a time and sorted, each set and then the block, so the whole
    stream comes out in the DFS's own lex order.  The sorting is
    Python's: the first calls of numpy's sort and lexsort map about
    0.4 MB of kernel code into a process that sorts nothing else.
    """
    first = []
    for levels in _me_level_sets(s, L, level1_only=True):
        first.append(levels)
        yield levels
    if not first:
        return
    labels = np.array(_level_table(s)[0][1:]) - 1  # (n, N) 0-based labels
    dims = np.array(s.dims)
    strides = np.cumprod((1,) + s.dims[:0:-1])[::-1]  # mixed radix, mode 1 first
    first = np.array(first) - 1
    for h in range(1, s.n):  # 0-based level h, the image of level 0
        block = (((labels + labels[h]) % dims) @ strides)[first]
        block = block[block[:, 1:].min(axis=1, initial=s.n) > h] + 1
        yield from sorted(tuple(sorted(levels)) for levels in block.tolist())


def _superpositions(n: int, level_sets) -> np.ndarray:
    """Equal phaseless superpositions of level sets of one size, one
    per row of an (M, n) complex array."""
    idx = np.asarray(level_sets, dtype=np.intp) - 1
    amps = np.zeros((len(idx), n), dtype=complex)
    amps[np.arange(len(idx))[:, None], idx] = 1.0 / np.sqrt(idx.shape[1])
    return amps


def _me_flags(s: ModeStructure, level_sets) -> list[bool]:
    """Whether the equal phaseless superposition of each level set (all
    of one size) is maximally entangled: ent within ME_TOL of 1.  Sets
    of fewer than 2 levels are not.  Rows go through `ent_rows` in
    blocks of at most BLOCK_AMPLITUDES amplitudes."""
    if not level_sets or len(level_sets[0]) < 2:
        return [False] * len(level_sets)
    rows = max(1, BLOCK_AMPLITUDES // s.n)
    flags: list[bool] = []
    for i in range(0, len(level_sets), rows):
        amps = _superpositions(s.n, level_sets[i:i + rows])
        flags.extend((ent_rows(s, amps) >= 1.0 - ME_TOL).tolist())
    return flags


def _certified(s: ModeStructure, level_sets) -> list[MeTgxTuple]:
    """MeTgxTuples of level sets the caller has certified, built
    without `MeTgxTuple.__init__`'s test."""
    tuples = []
    for levels in level_sets:
        t = object.__new__(MeTgxTuple)
        object.__setattr__(t, "structure", s)
        object.__setattr__(t, "levels", levels)
        tuples.append(t)
    return tuples


def _certify(s: ModeStructure, level_sets) -> list[MeTgxTuple]:
    """MeTgxTuples of ascending in-range level sets of one size,
    certified in `_me_flags` blocks; the first set that is not ME
    raises ValueError."""
    for levels, ok in zip(level_sets, _me_flags(s, level_sets)):
        if not ok:
            raise ValueError(f"{levels} is not an ME TGX tuple of {s}")
    return _certified(s, level_sets)


def enumerate_me_tuples(s: ModeStructure, L: int) -> list[MeTgxTuple]:
    """All ME TGX tuples of size L, lexicographically sorted.

    L must lie in L* (ValueError otherwise).  The search survivors come
    from `_all_level_sets`: the DFS walks only the sets holding level 1,
    and the per-mode label shift that takes level 1 to level h builds
    the sets whose smallest level is h, each block sorted, so the list
    keeps the DFS's lex order.  The level-1 sets, the stream's prefix,
    are certified numerically and in blocks (`_certify`); a survivor
    that is not ME raises ValueError.  Every later set is a label shift,
    a local unitary, of a certified one, so it has the same ent and is
    wrapped untested.
    """
    level_sets = list(_all_level_sets(s, _check_L(s, L)))
    k = bisect_left(level_sets, (2,))  # the sets holding level 1
    return _certify(s, level_sets[:k]) + _certified(s, level_sets[k:])


def build_tgx_state(t: MeTgxTuple) -> PureStateVector:
    """The TGX state of a tuple: the equal phaseless superposition of its
    levels, the one-row case of `_superpositions`, which `mme.construct`
    and the comparison families run on whole tuple sets."""
    return PureStateVector(t.structure, _superpositions(t.structure.n, [t.levels]))


class LocalUnitarySet:
    """One unitary per mode, applied as their tensor product.

    Each matrix must be square; the matrices of one size are then
    checked for unitarity together, one stacked isometry check per
    distinct size."""

    def __init__(self, unitaries):
        mats = [np.asarray(u, dtype=complex) for u in unitaries]
        for u in mats:
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError(f"local unitary must be square, got shape {u.shape}")
        for d in {len(u) for u in mats}:
            _check_isometry("local unitary", np.stack([u for u in mats if len(u) == d]))
        self.unitaries = tuple(mats)

    def _check_structure(self, s: ModeStructure) -> None:
        if len(self.unitaries) != s.N:
            raise ValueError(
                f"{len(self.unitaries)} unitaries for {s.N} modes"
            )
        for u, d in zip(self.unitaries, s.dims):
            if u.shape[0] != d:
                raise ValueError(
                    f"unitary of size {u.shape[0]} does not match mode dimension {d}"
                )


def _apply_per_axis(mats, rows: np.ndarray, dims) -> np.ndarray:
    """Contract mats[k] into axis k of each row of an (M, prod(dims))
    stack viewed as (M, *dims): per axis, one `np.dot` of mats[k] with
    the whole stack's axis-k lines, the product `np.tensordot` would
    make without its wrapper.  Returns the (M, prod(dims)) result."""
    t = rows.reshape((len(rows),) + tuple(dims))
    for k, u in enumerate(mats, start=1):
        lines = np.moveaxis(t, k, 0)
        t = np.moveaxis(np.dot(u, lines.reshape(len(u), -1)).reshape(lines.shape), 0, k)
    return t.reshape(len(rows), -1)


def apply_lu(state: PureStateVector, lus: LocalUnitarySet) -> PureStateVector:
    """Apply a tensor product of per-mode unitaries to a pure state; the
    norm and the ent are preserved.  Works mode by mode on the
    (n_1, ..., n_N) tensor, so the n x n Kronecker product is never
    formed; the state is the one-row case of the stacked contraction
    `_apply_per_axis`, which `mme.construct` runs on all its eigenstates
    at once (a mixed state is dressed through its eigenbasis there)."""
    if not isinstance(state, PureStateVector):
        raise TypeError(f"cannot apply local unitaries to {type(state).__name__}")
    s = state.structure
    lus._check_structure(s)
    return PureStateVector(s, _apply_per_axis(lus.unitaries, state.amplitudes[None], s.dims))
