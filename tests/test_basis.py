import numpy as np
import pytest

import swlme.basis
from swlme.basis import (
    Variant,
    compute_tensors,
    gauss_rule,
    phi,
    phi_antiderivative,
    phi_prime,
    phi_table,
    tensor_node_count,
)


def test_phi_fixed_values():
    assert phi(0, 0.7) == 1.0
    assert phi(1, 0.5) == 0.0
    assert phi(2, 0.0) == 1.0
    # normalization at zero holds for every index
    for i in range(9):
        assert phi(i, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_phi_negative_index():
    for fn in (phi, phi_prime, phi_antiderivative):
        with pytest.raises(ValueError):
            fn(-1, 0.5)


def test_phi_prime_fixed_values():
    assert phi_prime(0, 0.3) == 0.0
    assert phi_prime(1, 0.9) == -2.0


def test_phi_prime_at_midpoint_by_finite_differences():
    # phi_2 is symmetric about 1/2, so its derivative vanishes there
    step = 1e-5
    fd = (phi(2, 0.5 + step) - phi(2, 0.5 - step)) / (2 * step)
    assert fd == pytest.approx(0.0, abs=1e-8)
    assert phi_prime(2, 0.5) == pytest.approx(fd, abs=1e-8)


def test_phi_prime_matches_finite_differences():
    # away from the endpoints, where high-order third derivatives stay moderate
    step = 1e-5
    zeta = np.linspace(0.15, 0.85, 57)
    for i in range(9):
        fd = (phi(i, zeta + step) - phi(i, zeta - step)) / (2 * step)
        np.testing.assert_allclose(phi_prime(i, zeta), fd, rtol=0.0, atol=1e-7)


def test_phi_antiderivative_values():
    assert phi_antiderivative(0, 0.25) == 0.25
    assert phi_antiderivative(1, 1.0) == 0.0
    # closed form zeta - zeta^2 at the midpoint
    assert phi_antiderivative(1, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_phi_antiderivative_against_quadrature():
    rule = gauss_rule(12)
    for i in range(7):
        for zeta in (0.2, 0.5, 0.83, 1.0):
            # map the rule onto [0, zeta]
            val = zeta * np.dot(rule.weights, phi(i, zeta * rule.nodes))
            assert phi_antiderivative(i, zeta) == pytest.approx(val, abs=1e-14)


def test_gauss_rule_invariants():
    for n in range(1, 13):
        rule = gauss_rule(n)
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14
        for k in range(2 * n):
            exact = 1.0 / (k + 1)
            assert rule.integrate(lambda z: z**k) == pytest.approx(exact, abs=1e-13)


def test_gauss_rule_values():
    one = gauss_rule(1)
    np.testing.assert_array_equal(one.nodes, [0.5])
    np.testing.assert_array_equal(one.weights, [1.0])
    assert gauss_rule(2).integrate(lambda z: z**3) == pytest.approx(0.25, abs=1e-14)
    assert gauss_rule(5).integrate(lambda z: z**9) == pytest.approx(0.1, abs=1e-14)


def test_gauss_rule_rejects_zero_nodes():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_orthogonality():
    rule = gauss_rule(12)
    table = phi_table(8, rule.nodes)
    gram = (table * rule.weights) @ table.T
    expect = np.diag(1.0 / (2.0 * np.arange(9) + 1.0))
    np.testing.assert_allclose(gram, expect, atol=1e-12)


def test_linearized_tensors_are_exactly_zero():
    for n in (0, 1, 3, 5):
        t = compute_tensors(n, Variant.SWLME)
        assert t.variant is Variant.SWLME
        assert t.A.shape == (n, n, n)
        assert np.all(t.A == 0.0) and np.all(t.B == 0.0)


def test_full_tensor_order_one():
    t = compute_tensors(1, Variant.SWME)
    # phi_1^3 is odd about the midpoint
    assert t.A[0, 0, 0] == 0.0
    assert t.B[0, 0, 0] == 0.0


def _brute_force_tensors(order, n_nodes):
    """Independent oracle: plain triple loop, no symmetry or parity shortcuts."""
    rule = gauss_rule(n_nodes)
    z, w = rule.nodes, rule.weights
    A = np.zeros((order,) * 3)
    B = np.zeros((order,) * 3)
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            for k in range(1, order + 1):
                A[i - 1, j - 1, k - 1] = (2 * i + 1) * np.dot(w, phi(i, z) * phi(j, z) * phi(k, z))
                B[i - 1, j - 1, k - 1] = (2 * i + 1) * np.dot(
                    w, phi_prime(i, z) * phi_antiderivative(j, z) * phi(k, z)
                )
    return A, B


@pytest.mark.parametrize("order", [1, 2, 3])
def test_full_tensors_against_brute_force(order):
    t = compute_tensors(order, Variant.SWME)
    A, B = _brute_force_tensors(order, 4 * tensor_node_count(order))
    np.testing.assert_allclose(t.A, A, atol=1e-13)
    np.testing.assert_allclose(t.B, B, atol=1e-13)


def test_tensor_quadrature_plateau(monkeypatch):
    # already-exact rules: adding nodes must not move the entries
    t1 = compute_tensors(3, Variant.SWME)
    monkeypatch.setattr(swlme.basis, "tensor_node_count", lambda order: tensor_node_count(order) + 3)
    t2 = compute_tensors(3, Variant.SWME)
    np.testing.assert_allclose(t1.A, t2.A, atol=1e-13)
    np.testing.assert_allclose(t1.B, t2.B, atol=1e-13)


def test_tensor_symmetry_is_exact():
    t = compute_tensors(4, Variant.SWME)
    assert np.array_equal(t.A, t.A.transpose(0, 2, 1))


def test_tensors_immutable():
    t = compute_tensors(2, Variant.SWME)
    with pytest.raises(ValueError):
        t.A[0, 0, 0] = 1.0


def test_known_tensor_entries():
    # hand-integrated: B_112 = 1/5, B_211 = -1, B_222 = -1/7, A_112 = 2/5
    t = compute_tensors(2, Variant.SWME)
    assert t.B[0, 0, 1] == pytest.approx(0.2, abs=1e-14)
    assert t.B[1, 0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert t.B[1, 1, 1] == pytest.approx(-1.0 / 7.0, abs=1e-14)
    assert t.A[0, 0, 1] == pytest.approx(0.4, abs=1e-14)


def test_term_tables_list_the_nonzero_entries_in_einsum_order():
    assert compute_tensors(3, Variant.SWLME).A_terms is None
    assert compute_tensors(3, Variant.SWLME).B_terms is None
    for n in range(1, 9):
        t = compute_tensors(n, Variant.SWME)
        for T, terms, x_axis in ((t.A, t.A_terms, 1), (t.B, t.B_terms, 2)):
            assert all(not a.flags.writeable for a in terms)
            m = terms.coef.shape[0]
            assert terms.coef.shape == terms.xrow.shape == terms.yrow.shape == (m, n)
            assert m == max(np.count_nonzero(T[i]) for i in range(n))
            for i in range(n):
                k = np.count_nonzero(terms.coef[:, i])
                assert not terms.coef[k:, i].any()  # padding only after the terms
                x, y = terms.xrow[:k, i], terms.yrow[:k, i]
                j, kk = (x, y) if x_axis == 1 else (y, x)
                # j outer, k inner, and every nonzero entry once
                assert list(zip(j, kk)) == sorted(zip(*np.nonzero(T[i])))
                assert terms.coef[:k, i].tobytes() == T[i, j, kk].tobytes()
