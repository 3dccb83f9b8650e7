"""Tests of the seeded re-basing helper.

    python3 -m pytest perfbench/test_rebase.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

from hopfex import QQ  # noqa: E402
from hopfex.zoo import (cyclic, dual_group_algebra, group_algebra,  # noqa: E402
                        symmetric, tensor_product)
from rebase import (DENSITY, rebase, unitriangular,  # noqa: E402
                    unitriangular_inverse)


def invariants(coalg):
    simples = coalg.simple_subcoalgebras()
    return ([lvl.dim for lvl in coalg.coradical_filtration()],
            sorted((c.dim, c.matrix_size) for c in simples),
            sum(1 for c in simples if c.is_grouplike))


@pytest.mark.parametrize("seed", [3, 17])
def test_unitriangular_inverse_is_integral(seed):
    p = unitriangular(12, seed)
    q = unitriangular_inverse(p)
    n = len(p)
    assert sum(1 for a in range(n) for i in range(a + 1, n) if p[a][i]) \
        == round(DENSITY * n * (n - 1) / 2)
    for a in range(n):
        for i in range(n):
            assert sum(p[a][b] * q[b][i] for b in range(n)) == int(a == i)
            assert isinstance(q[a][i], int)
            if i < a:
                assert q[a][i] == 0


@pytest.mark.parametrize("seed", [3, 17])
def test_rebased_coalgebra_keeps_axioms_and_invariants(seed):
    original = tensor_product(group_algebra(cyclic(2), QQ),
                              dual_group_algebra(symmetric(3), QQ))
    rebased = rebase(original, seed)
    assert rebased.check() == []
    entries = sum(len(d) for d in rebased.comul)
    assert entries > 4 * sum(len(d) for d in original.comul)
    assert all(c.val.denominator == 1 for d in rebased.comul
               for c in d.values())
    assert invariants(rebased) == invariants(original)
