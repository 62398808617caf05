import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import jets
from dfindex.fields import (
    ChartDomainError,
    ScalarField,
    complex_hessian,
    complex_point,
    real_coords,
    wirtinger,
    wirtinger_table,
)
from dfindex.jets import Jet, JetOrderError


def field_ball_plus(n=2):
    return ScalarField(n, lambda zs: sum((jets.abs2(w) for w in zs),
                                         Jet.constant(0.0, 2 * n, zs[0].order)))


def messy_field():
    def fn(zs):
        trig = jets.exp(jets.sin(zs[0].real()) * jets.cos(zs[1].imag()))
        rational = (zs[0] * zs[1] + 2.0) / (jets.abs2(zs[1]) + 1.5)
        return trig * rational + jets.log(jets.abs2(zs[1]) + 1.0) * 0.3

    return ScalarField(2, fn)


def test_quadratic_norm_has_identity_complex_hessian():
    f = field_ball_plus()
    j = f.jet([1.0, 0.0], 2)
    assert wirtinger(j, (1, 0), (1, 0)) == pytest.approx(1.0)
    assert wirtinger(j, (0, 1), (0, 1)) == pytest.approx(1.0)
    assert wirtinger(j, (1, 0), (0, 1)) == pytest.approx(0.0)
    np.testing.assert_allclose(complex_hessian(f, [1.0, 0.0]), np.eye(2), atol=1e-14)


def test_constant_field_has_zero_derivatives():
    f = ScalarField(2, lambda zs: Jet.constant(5.0, 4, zs[0].order))
    j = f.jet([0.3 + 0.1j, -0.2j], 3)
    assert j.value == 5.0
    assert np.all(j.grad == 0) and np.all(j.hess == 0) and np.all(j.third == 0)


def test_re_z1_cubed_third_partial():
    f = ScalarField(1, lambda zs: (zs[0] ** 3).real())
    j = f.jet([1.0 + 0.0j], 3)
    assert j.third[0, 0, 0] == pytest.approx(6.0, abs=1e-12)


def test_wirtinger_of_holomorphic_coordinate():
    f = ScalarField(1, lambda zs: zs[0])
    j = f.jet([0.7 - 0.2j], 1)
    assert wirtinger(j, (1,), (0,)) == pytest.approx(1.0)
    assert wirtinger(j, (0,), (1,)) == pytest.approx(0.0)


def test_wirtinger_of_abs_square():
    f = ScalarField(1, lambda zs: jets.abs2(zs[0]))
    j = f.jet([0.4 + 0.9j], 2)
    assert wirtinger(j, (1,), (1,)) == pytest.approx(1.0)


def test_log_abs_square_is_pluriharmonic_off_zero():
    f = ScalarField(1, lambda zs: jets.log(jets.abs2(zs[0])))
    for z in (1.0, 0.3 + 0.8j, -1.2 + 0.4j):
        j = f.jet([z], 2)
        assert abs(wirtinger(j, (1,), (1,))) < 1e-13


def test_pluriharmonic_re_z_squared_has_zero_complex_hessian():
    f = ScalarField(2, lambda zs: (zs[0] ** 2).real())
    np.testing.assert_allclose(complex_hessian(f, [0.4 + 0.2j, -0.3j]), 0.0, atol=1e-14)


def test_exact_symmetry_on_messy_field():
    f = messy_field()
    j = f.jet([0.3 + 0.4j, -0.2 + 0.9j], 3)
    assert np.max(np.abs(j.hess - j.hess.T)) == 0.0
    for perm in itertools.permutations(range(3)):
        assert np.max(np.abs(j.third - np.transpose(j.third, perm))) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_symmetry_exact_on_random_products(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(4)

    def fn(zs):
        a = jets.sin(zs[0].real() * float(coeffs[0])) + zs[1].imag() * float(coeffs[1])
        b = jets.exp(zs[0].imag() * float(coeffs[2])) * (zs[1].real() + 2.0)
        return a * b + (a * float(coeffs[3])) * a

    f = ScalarField(2, fn)
    z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    j = f.jet(z, 3)
    assert np.max(np.abs(j.hess - j.hess.T)) == 0.0
    for perm in itertools.permutations(range(3)):
        assert np.max(np.abs(j.third - np.transpose(j.third, perm))) == 0.0


def test_symmetry_exact_over_thousand_polynomial_fields():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        c = rng.standard_normal(3)

        def fn(zs, c=c):
            x, y = zs[0].real(), zs[1].imag()
            return float(c[0]) * x * x * y + float(c[1]) * (x * y) * (x + 2.0) + float(c[2]) * y ** 3

        j = ScalarField(2, fn).jet(0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)), 3)
        worst = max(worst, np.max(np.abs(j.hess - j.hess.T)))
        for perm in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
            worst = max(worst, np.max(np.abs(j.third - np.transpose(j.third, perm))))
    assert worst == 0.0


def test_finite_difference_oracle():
    f = messy_field()
    z = np.array([0.3 + 0.4j, -0.2 + 0.9j])
    j = f.jet(z, 2)
    x0 = real_coords(z)
    h = 1e-4
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (f(complex_point(x0 + e)) - f(complex_point(x0 - e))) / (2 * h)
        assert abs(fd - j.grad[i]) <= 1e-8 * (1 + abs(j.grad[i]))
        fd2 = (f(complex_point(x0 + e)) - 2 * f(complex_point(x0)) + f(complex_point(x0 - e))) / h**2
        assert abs(fd2 - j.hess[i, i]) <= 1e-5 * (1 + abs(j.hess[i, i]))


def test_conjugation_swaps_multi_indices():
    def fn(zs):
        return zs[0] * zs[0] * zs[1].conj() + 1j * jets.sin(zs[1].real())

    f = ScalarField(2, fn)
    fc = ScalarField(2, lambda zs: fn(zs).conj())
    z = [0.2 + 0.5j, 0.8 - 0.1j]
    j, jc = f.jet(z, 3), fc.jet(z, 3)
    for a, b in (((1, 0), (0, 1)), ((2, 0), (0, 0)), ((1, 1), (1, 0))):
        assert wirtinger(jc, a, b) == pytest.approx(np.conj(wirtinger(j, b, a)), abs=1e-13)


def test_repeated_evaluation_bit_identical():
    f = messy_field()
    j1 = f.jet([0.3 + 0.4j, -0.2 + 0.9j], 3)
    j2 = f.jet([0.3 + 0.4j, -0.2 + 0.9j], 3)
    assert j1.value == j2.value
    assert np.array_equal(j1.grad, j2.grad)
    assert np.array_equal(j1.hess, j2.hess)
    assert np.array_equal(j1.third, j2.third)


def test_order_and_chart_errors():
    def guard(z):
        if np.any(np.abs(z) > 1.0):
            raise ChartDomainError("outside the unit disc")

    f = ScalarField(1, lambda zs: zs[0], guard=guard)
    with pytest.raises(JetOrderError):
        f.jet([0.0], 4)
    with pytest.raises(ChartDomainError):
        f.jet([2.0 + 0.0j], 1)
    with pytest.raises(JetOrderError):
        wirtinger(f.jet([0.0], 1), (1,), (1,))
    with pytest.raises(ValueError):
        wirtinger(f.jet([0.0], 1), (1, 0), (0,))


def test_complex_hessian_rejects_non_real_field():
    f = ScalarField(1, lambda zs: zs[0])
    with pytest.raises(ValueError):
        complex_hessian(f, [0.3 + 0.1j])


def test_division_and_power_kernels():
    x = Jet.variable(0.7, 0, 2, 3)
    y = Jet.variable(-0.3, 1, 2, 3)
    u = (x * x + 1.5) / (y + 2.0)
    v = (x * x + 1.5) * (y + 2.0).reciprocal()
    assert u.value == pytest.approx(v.value)
    np.testing.assert_allclose(u.third, v.third, atol=1e-14)
    w = jets.power(x * x + 0.5, 1.7)
    fd = ((0.7 + 1e-5) ** 2 + 0.5) ** 1.7 - ((0.7 - 1e-5) ** 2 + 0.5) ** 1.7
    assert w.grad[0] == pytest.approx(fd / 2e-5, rel=1e-8)
    with pytest.raises(ValueError):
        jets.log(Jet.constant(-1.0, 2, 2))
    with pytest.raises(ZeroDivisionError):
        Jet.constant(0.0, 2, 2).reciprocal()


def test_integer_powers_match_repeated_multiplication():
    x = Jet.variable(0.4, 0, 2, 3) + 1j * Jet.variable(-0.8, 1, 2, 3)
    p3 = x ** 3
    ref = x * x * x
    np.testing.assert_allclose(p3.third, ref.third, atol=1e-13)
    inv2 = x ** (-2)
    ref2 = (x * x).reciprocal()
    np.testing.assert_allclose(inv2.hess, ref2.hess, atol=1e-12)


def test_shift_extracts_derivative_jets():
    f = messy_field()
    j3 = f.jet([0.3 + 0.4j, -0.2 + 0.9j], 3)
    shifted = j3.shift(1)
    assert shifted.order == 2
    assert shifted.value == j3.grad[1]
    np.testing.assert_array_equal(shifted.grad, j3.hess[1])
    np.testing.assert_array_equal(shifted.hess, j3.third[1])


def test_evaluators_are_thread_safe():
    import concurrent.futures

    f = messy_field()
    z = [0.3 + 0.4j, -0.2 + 0.9j]
    reference = f.jet(z, 3)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: f.jet(z, 3), range(64)))
    for j in results:
        assert j.value == reference.value
        assert np.array_equal(j.third, reference.third)


def test_wirtinger_table_symmetry():
    f = messy_field()
    t = wirtinger_table(f.jet([0.1 + 0.2j, 0.5 - 0.3j], 3), 2)
    np.testing.assert_allclose(t.w2, t.w2.T, atol=0)
    np.testing.assert_allclose(t.w3, np.transpose(t.w3, (2, 1, 0)), atol=0)
