import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import legder, leggauss, legint, legval, legvander

from swlme.basis import Variant, compute_tensors
from swlme.model import N_MAX


def gauss_nodes(n):
    """Gauss-Legendre nodes and weights mapped to [0,1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def test_orthogonality():
    z, w = gauss_nodes(12)
    table = legvander(1.0 - 2.0 * z, 8).T
    gram = (table * w) @ table.T
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


def _brute_force_tensors(order):
    """Independent oracle: Gauss quadrature, plain triple loop, no symmetry or parity shortcuts.

    phi_i(z) = P_i(1 - 2z), so d(phi_i)/dz = -2 P_i'(x) and
    int_0^z phi_j = (1/2) int_x^1 P_j, with x = 1 - 2z.
    """
    z, w = gauss_nodes(2 * order + 2)  # exact to degree 4 order + 3 >= 3 order
    x = 1.0 - 2.0 * z
    unit = np.eye(order + 1)
    vals = [legval(x, unit[i]) for i in range(order + 1)]
    der = [-2.0 * legval(x, legder(unit[i])) for i in range(order + 1)]
    anti = [legval(x, legint(unit[i], lbnd=1, scl=-0.5)) for i in range(order + 1)]
    A = np.zeros((order,) * 3)
    B = np.zeros((order,) * 3)
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            for k in range(1, order + 1):
                A[i - 1, j - 1, k - 1] = (2 * i + 1) * np.dot(w, vals[i] * vals[j] * vals[k])
                B[i - 1, j - 1, k - 1] = (2 * i + 1) * np.dot(w, der[i] * anti[j] * vals[k])
    return A, B


@pytest.mark.parametrize("order", range(1, 9))
def test_full_tensors_against_brute_force(order):
    t = compute_tensors(order, Variant.SWME)
    A, B = _brute_force_tensors(order)
    np.testing.assert_allclose(t.A, A, atol=1e-13)
    np.testing.assert_allclose(t.B, B, atol=1e-13)


def exact_tensors(order):
    """A and B, correctly rounded from exact polynomial arithmetic in the monomial basis.

    phi_n(z) = sum_k C(n,k) C(n+k,k) (-z)^k.  The products are multiplied,
    differentiated and integrated coefficient by coefficient; no closed form
    for the integrals is used.
    """
    phi = [[math.comb(n, k) * math.comb(n + k, k) * (-1) ** k for k in range(n + 1)]
           for n in range(order + 1)]

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for a, x in enumerate(p):
            for b, y in enumerate(q):
                out[a + b] += x * y
        return out

    # integer coefficients throughout: the antiderivatives are scaled by L
    L = math.lcm(*range(1, 3 * order + 2))

    def integral(p):  # int_0^1 p dz
        return Fraction(sum(c * (L // (d + 1)) for d, c in enumerate(p)), L)

    der = [[d * c for d, c in enumerate(p)][1:] or [0] for p in phi]
    anti = [[0] + [c * (L // (d + 1)) for d, c in enumerate(p)] for p in phi]
    A = np.zeros((order,) * 3)
    B = np.zeros((order,) * 3)
    for j in range(1, order + 1):
        for k in range(1, order + 1):
            vv, av = mul(phi[j], phi[k]), mul(anti[j], phi[k])
            for i in range(1, order + 1):
                # float(Fraction) is the correctly rounded double
                A[i - 1, j - 1, k - 1] = float((2 * i + 1) * integral(mul(phi[i], vv)))
                B[i - 1, j - 1, k - 1] = float((2 * i + 1) * integral(mul(der[i], av)) / L)
    return A, B


def test_tensors_are_correctly_rounded():
    A, B = exact_tensors(12)
    for n in range(1, 13):
        t = compute_tensors(n, Variant.SWME)
        assert t.A.tobytes() == A[:n, :n, :n].tobytes(), n
        assert t.B.tobytes() == B[:n, :n, :n].tobytes(), n


def test_nonzero_pattern_at_the_order_bound():
    n = N_MAX
    t = compute_tensors(n, Variant.SWME)
    assert np.count_nonzero(t.A) == 70064 and np.count_nonzero(t.B) == 70009
    assert np.array_equal(t.A, t.A.transpose(0, 2, 1))
    # Legendre parity and triangle rule: i+j+k even and max(i,j,k) <= (i+j+k)/2
    i, j, k = np.meshgrid(*(np.arange(1, n + 1),) * 3, indexing="ij")
    rule = ((i + j + k) % 2 == 0) & (2 * np.maximum(np.maximum(i, j), k) <= i + j + k)
    assert np.array_equal(t.A != 0.0, rule)
    assert not t.B[~rule].any()  # B also cancels exactly on 55 entries inside the rule
    for T, terms in ((t.A, t.A_terms), (t.B, t.B_terms)):
        rows = np.count_nonzero(T.reshape(n, -1), axis=1)
        assert terms.coef.shape[0] == rows.max()
        assert np.array_equal(np.count_nonzero(terms.coef, axis=0), rows)


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
    assert t.B[0, 0, 1] == 0.2
    assert t.B[1, 0, 0] == -1.0
    assert t.B[1, 1, 1] == -1.0 / 7.0
    assert t.A[0, 0, 1] == 0.4


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
