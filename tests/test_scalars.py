from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cherncurv.scalars import (ROUNDING, QQi, I_EXACT, conj, is_exact,
                               is_zero, mat_det, mat_inv, mat_mul, mat_solve,
                               negligible, unify)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
qqis = st.builds(QQi, rationals, rationals)


@given(qqis, qqis, qqis)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qqis)
def test_division_inverts(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            QQi(1) / a
        return
    assert (QQi(1) / a) * a == QQi(1)
    assert a / a == QQi(1)


@given(qqis, qqis)
def test_conjugation(a, b):
    assert conj(a * b) == conj(a) * conj(b)
    assert conj(conj(a)) == a
    assert complex(conj(a)) == complex(a).conjugate()


def _parts(x):
    return (x.re, x.im) if isinstance(x, QQi) else (Fraction(x), Fraction(0))


@given(qqis)
def test_zero_operand_short_circuit(a):
    # a zero on either side, as QQi, int or Fraction, still gives the QQi
    # that full arithmetic gives
    third = Fraction(-2, 7)
    for left, right in ((QQi(), a), (a, QQi()), (QQi(), 3), (3, QQi()),
                        (QQi(), third), (third, QQi()), (a, 0), (0, a),
                        (a, Fraction(0)), (Fraction(0), a)):
        (lr, li), (rr, ri) = _parts(left), _parts(right)
        total, prod = left + right, left * right
        assert isinstance(total, QQi) and isinstance(prod, QQi)
        assert (total.re, total.im) == (lr + rr, li + ri)
        assert (prod.re, prod.im) == (lr * rr - li * ri, lr * ri + li * rr)


def test_unit_square():
    assert I_EXACT * I_EXACT == QQi(-1)
    assert complex(I_EXACT) == 1j


def test_constructor_idempotent():
    a = QQi(Fraction(1, 3), 2)
    assert QQi(a) == a


def test_is_exact_and_zero():
    assert is_exact(QQi(1)) and is_exact(Fraction(1, 2))
    assert not is_exact(1.0) and not is_exact(1j)
    assert is_zero(QQi())
    assert not is_zero(QQi(0, Fraction(1, 10 ** 12)))
    assert is_zero(1e-16)
    assert is_zero(1e-9, scale=1e6)
    assert not is_zero(1e-3, scale=1.0)


def test_negligible_against_rounding_bound():
    # exact values are zero only when they are; floats within ROUNDING
    # times their bound, and an input value (bound 0) only when it is 0
    assert negligible(QQi(), 1.0)
    assert not negligible(QQi(0, Fraction(1, 10 ** 30)), 1.0)
    assert negligible(0.0, 0.0) and not negligible(1e-300, 0.0)
    assert negligible(ROUNDING * 1e-16, 1e-16)
    assert not negligible(1.01 * ROUNDING * 1e-16j, 1e-16)


@given(st.lists(st.lists(st.complex_numbers(max_magnitude=3,
                                            allow_nan=False,
                                            allow_infinity=False),
                         min_size=2, max_size=2), min_size=2, max_size=2))
def test_solve_matches_numpy(rows):
    a = np.array(rows)
    if abs(np.linalg.det(a)) < 1e-6:
        return
    rhs = [[1 + 0j, 0j], [0j, 1 + 0j]]
    x = mat_solve(rows, rhs)
    assert np.allclose(np.array(x), np.linalg.solve(a, np.array(rhs)),
                       atol=1e-8)


def test_exact_inverse():
    a = [[QQi(2), I_EXACT], [-I_EXACT, QQi(1)]]
    inv = mat_inv(a)
    prod = mat_mul(a, inv)
    assert prod[0][0] == QQi(1) and prod[1][1] == QQi(1)
    assert not prod[0][1] and not prod[1][0]
    assert mat_det(a) == QQi(1)


def test_det_3x3_exact():
    a = [[QQi(1), QQi(2), QQi(0)],
         [QQi(0), QQi(1), QQi(3)],
         [QQi(4), QQi(0), QQi(1)]]
    assert mat_det(a) == QQi(25)


def test_unify_decides_once_for_all_values():
    exact, (a, p) = unify([{(1, 1, 2): QQi(0, 1)},
                           {"r": QQi(2), "u": Fraction(1, 2)}])
    assert exact
    assert a == {(1, 1, 2): QQi(0, 1)} and isinstance(a[(1, 1, 2)], QQi)
    assert type(p["r"]) is Fraction and p["r"] == 2
    assert isinstance(p["u"], QQi)
    # one decimal promotes everything, parameters included
    exact, (a, p) = unify([{(1, 1, 2): QQi(0, 1)}, {"r": 2, "u": 0.5}])
    assert not exact
    assert a == {(1, 1, 2): 1j} and type(p["r"]) is float
    assert type(p["u"]) is complex
    exact, (p,) = unify([{"r": Fraction(1, 2)}], exact=False)
    assert not exact and p == {"r": 0.5}


def test_unify_refusals():
    with pytest.raises(ValueError, match="rational"):
        unify([{"u": 0.5j}], exact=True)
    for exact in (None, True, False):
        with pytest.raises(ValueError, match="must be real"):
            unify([{"s": QQi(1, 1)}], exact=exact)
