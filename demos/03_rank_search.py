#!/usr/bin/env python3
"""How mixed can maximal entanglement get?

The maximal rank R of a mixed maximally entangled state equals the size
of the largest family of ME TGX tuples whose projections stay disjoint
on every extreme bipartition.  That is a maximum-clique problem over
the tuple compatibility graph; r_tilde = floor(min_m n_B_m / min L*)
caps it from above.

Shown here: the qubit ladder 2^N, where the cap is tight from N=6 on,
and a few qudit structures where incompatibility bites much earlier.
"""
from __future__ import annotations

import time

from mmekit import ModeStructure, max_mme_rank

print(f"{'dims':>16} {'r_tilde':>8} {'R_MME':>6} {'status':>12} {'secs':>7}")
for dims in [
    (2, 2),
    (2, 2, 2),
    (2, 2, 2, 2),
    (2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 2),
    (2, 6),
    (3, 6),
    (3, 3, 3),
    (2, 2, 3, 3),
    (2, 3, 5),
]:
    s = ModeStructure(dims)
    t0 = time.perf_counter()
    rep = max_mme_rank(s)
    dt = time.perf_counter() - t0
    print(f"{str(s):>16} {rep.r_tilde:>8} {rep.R_MME:>6} {rep.status:>12} {dt:>7.3f}")

rep = max_mme_rank(ModeStructure((2, 2, 2, 2)))
print(f"\nwitness for 2^4 (rank {rep.R_MME}):")
for t in rep.witness:
    print(f"  {t}")

# 2^7 has 64 candidate tuples; past n = 64 the default search, auto,
# runs greedy orders, and that lower bound still lands on the published rank
rep7 = max_mme_rank(ModeStructure((2,) * 7))
print(f"\n2^7 auto ({rep7.status}): R >= {rep7.R_MME} (r_tilde = {rep7.r_tilde})")

# the exact search proves that bound maximal and finds the lex-least
# witness in one pass: an ascending branch and bound, started only at
# the tuples holding level 1, whose greedy-colouring bound prunes the
# 64-tuple graph in under a thousand nodes
rep7 = max_mme_rank(ModeStructure((2,) * 7), search="exhaustive")
print(f"2^7 exhaustive: R = {rep7.R_MME} ({rep7.status}, "
      f"{rep7.nodes - rep7.tuple_count} search nodes over {rep7.tuple_count} tuples)")
