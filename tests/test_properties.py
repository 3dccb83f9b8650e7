"""Sampled structural invariants, derandomized for reproducibility."""

import functools

from hypothesis import given, settings, strategies as st

from hopfex.matforms import basic_multiplicative_matrix, matrix_hopf_power
from golden_defs import golden_objects
from lifting_cases import (as_raw, bicomponent_decomposition_vec, component,
                           delta_vec, hopf_power_map, mul_vec, t2_flatten,
                           tensor_mult, tensor_square_subspace, vec_add,
                           vec_is_zero, vec_scale, zero_vec)

BUILDERS = dict(golden_objects())
STEMS = ("sweedler", "taft9", "restricted3", "dual_kS3", "sweedler_f3")


@functools.lru_cache(maxsize=None)
def obj(stem):
    return BUILDERS[stem]()


def combination(h, basis_rows, coeffs):
    total = zero_vec(h.field, h.dim)
    for c, row in zip(coeffs, basis_rows):
        total = vec_add(total, vec_scale(h.field.from_int(c), row))
    return total


small_ints = st.lists(st.integers(-3, 3), min_size=1, max_size=12)
stems = st.sampled_from(STEMS)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(stem=stems, level=st.integers(0, 6), coeffs=small_ints)
def test_filtration_is_a_coalgebra_filtration(stem, level, coeffs):
    h = obj(stem)
    filt = h.coradical_filtration()
    n = min(level, len(filt) - 1)
    v = combination(h, filt[n].rows, coeffs)
    # Delta(H_n) lies inside sum of H_i (x) H_(n-i)
    target = None
    for i in range(n + 1):
        part = tensor_square_subspace(filt[i], filt[n - i])
        target = part if target is None else target.sum(part)
    flat = t2_flatten(h.field, delta_vec(h, v), h.dim)
    assert target.contains_raw(as_raw(target, flat))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(stem=stems, coeffs=small_ints)
def test_degree_one_bicomponents_sum_back(stem, coeffs):
    h = obj(stem)
    filt = h.coradical_filtration()
    h1 = filt[min(1, len(filt) - 1)]
    v = combination(h, h1.rows, coeffs)
    parts = bicomponent_decomposition_vec(h, v)
    total = zero_vec(h.field, h.dim)
    for (ci, di), part in parts.items():
        total = vec_add(total, part)
        sub = h.bicomponent_subspace(ci, di)
        assert sub.contains_raw(as_raw(h, part))
        if ci != di and not vec_is_zero(part):
            # off-diagonal bicomponents sit inside the counit kernel
            assert h.counit_vec(part).is_zero()
    assert total == v


@settings(max_examples=40, derandomize=True, deadline=None)
@given(stem=stems, pair=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       coeffs=small_ints)
def test_bicomponent_projection_is_idempotent(stem, pair, coeffs):
    h = obj(stem)
    simples = h.simple_subcoalgebras()
    ci, di = (pair[0] % len(simples), pair[1] % len(simples))
    v = combination(h, [h.basis_element(i).vec for i in range(h.dim)], coeffs)
    once = component(h, v, left=ci, right=di)
    twice = component(h, once, left=ci, right=di)
    assert twice == once


@settings(max_examples=30, derandomize=True, deadline=None)
@given(stem=stems, m=st.integers(0, 5), n=st.integers(0, 5))
def test_matrix_hopf_powers_are_multiplicative_in_the_exponent(stem, m, n):
    h = obj(stem)
    comp = h.simple_subcoalgebras()[0]
    g = basic_multiplicative_matrix(h, comp).matrix
    assert matrix_hopf_power(g, m) @ matrix_hopf_power(g, n) == \
        matrix_hopf_power(g, m + n)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(stem=stems, c1=small_ints, c2=small_ints)
def test_antipode_is_an_antihomomorphism(stem, c1, c2):
    h = obj(stem)
    basis = [h.basis_element(i).vec for i in range(h.dim)]
    u = combination(h, basis, c1)
    v = combination(h, basis, c2)
    lhs = h.antipode_vec(mul_vec(h, u, v))
    rhs = mul_vec(h, h.antipode_vec(v), h.antipode_vec(u))
    assert lhs == rhs


@settings(max_examples=40, derandomize=True, deadline=None)
@given(stem=stems, c1=small_ints, c2=small_ints)
def test_counit_and_comul_are_algebra_maps(stem, c1, c2):
    h = obj(stem)
    basis = [h.basis_element(i).vec for i in range(h.dim)]
    u = combination(h, basis, c1)
    v = combination(h, basis, c2)
    assert h.counit_vec(mul_vec(h, u, v)) == \
        h.counit_vec(u) * h.counit_vec(v)
    assert delta_vec(h, mul_vec(h, u, v)) == \
        tensor_mult(h.algebra, delta_vec(h, u), delta_vec(h, v))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(stem=stems, coeffs=small_ints, n=st.integers(0, 4))
def test_hopf_power_map_linearity(stem, coeffs, n):
    h = obj(stem)
    basis = [h.basis_element(i).vec for i in range(h.dim)]
    v = combination(h, basis, coeffs)
    pm = hopf_power_map(h, n)
    direct = pm.apply(v)
    by_parts = zero_vec(h.field, h.dim)
    for c, row in zip(coeffs, basis):
        by_parts = vec_add(
            by_parts, vec_scale(h.field.from_int(c), pm.apply(row)))
    assert direct == by_parts


@settings(max_examples=25, derandomize=True, deadline=None)
@given(stem=st.sampled_from(("sweedler", "taft9", "restricted3")),
       coeffs=small_ints)
def test_positive_part_is_stable(stem, coeffs):
    from hopfex.extension import graded_positive_part
    h = obj(stem)
    filt = h.coradical_filtration()
    h1 = filt[min(1, len(filt) - 1)]
    v = h.element(combination(h, h1.rows, coeffs))
    gls = h.group_likes()
    g, one = gls[-1], gls[0]
    ok, w = graded_positive_part(v, g, one, 1)
    ok2, w2 = graded_positive_part(w, g, one, 1)
    assert w2 == w  # normalising twice changes nothing
    assert ok2 == ok
