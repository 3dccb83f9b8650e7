"""Seeded change of basis for a coalgebra given by structure constants.

The new basis is f_i = sum_a P[a][i] e_a for an integer upper
unitriangular P.  Its inverse Q is integral too, so the re-based
structure constants stay integer combinations of the old ones and no
fractions grow.  A dense P turns a sparse table (a group-like or
delta-function basis) into a dense one without changing any invariant
that does not depend on the basis.
"""

from __future__ import annotations

import random

from hopfex import Coalgebra

NONZERO_ENTRIES = (-2, -1, 1, 2)
DENSITY = 0.3  # share of the entries above the diagonal that are nonzero


def unitriangular(n: int, seed: int) -> list[list[int]]:
    """Integer upper unitriangular n x n matrix with round(DENSITY * n(n-1)/2)
    nonzero entries above the diagonal, at seeded positions, each +-1 or +-2.

    The number of nonzero entries is fixed so that every seed makes the
    table about equally dense.
    """
    rng = random.Random(seed)
    above = [(a, i) for a in range(n) for i in range(a + 1, n)]
    p = [[int(a == i) for i in range(n)] for a in range(n)]
    for a, i in rng.sample(above, round(DENSITY * len(above))):
        p[a][i] = rng.choice(NONZERO_ENTRIES)
    return p


def unitriangular_inverse(p: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an upper unitriangular integer matrix, by back
    substitution; it is again integer upper unitriangular."""
    n = len(p)
    q = [[int(a == i) for i in range(n)] for a in range(n)]
    for i in range(n):
        for a in range(i - 1, -1, -1):
            q[a][i] = -sum(p[a][b] * q[b][i] for b in range(a + 1, i + 1))
    return q


def rebase(coalg, seed: int):
    """The same coalgebra written in the basis f_i = sum_a P[a][i] e_a.

    Only the coalgebra structure is carried over; the basis names are
    kept.
    """
    field = coalg.field
    n = coalg.dim
    p = unitriangular(n, seed)
    q = unitriangular_inverse(p)
    # e_b = sum_j Q[j][b] f_j, so each tensor leg maps through column b of Q
    qcols = [[(j, field.from_int(q[j][b])) for j in range(n) if q[j][b]]
             for b in range(n)]
    comul: dict = {}
    counit = []
    for i in range(n):
        eps = field.zero()
        for a in range(n):
            if p[a][i]:
                pai = field.from_int(p[a][i])
                eps = eps + pai * coalg.counit[a]
                for (b, c), val in coalg.comul[a].items():
                    w = pai * val
                    for j, qj in qcols[b]:
                        wj = w * qj
                        for k, qk in qcols[c]:
                            key = (i, j, k)
                            comul[key] = comul.get(key, field.zero()) + wj * qk
        counit.append(eps)
    return Coalgebra(field, coalg.names, comul, counit,
                     name=f"{coalg.name} rebased(seed={seed})")

