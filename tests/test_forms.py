import pytest

from cherncurv import catalog
from cherncurv.forms import (CoframeAlgebra, DimensionMismatch, InvariantForm,
                             NotIntegrable, del_part, dbar_part, ext_d)
from cherncurv.scalars import I_EXACT, QQi
from forms_oracle import basis_1form


def hopf_algebra():
    alg, _, _ = catalog.build("hopf", exact=True)
    return alg


def test_wedge_anticommutes_on_1forms():
    alg = hopf_algebra()
    a = basis_1form(alg, 1)
    b = basis_1form(alg, 2, barred=True)
    assert a.wedge(b) == b.wedge(a).scale(QQi(-1))
    assert a.wedge(a).is_zero()


def test_wedge_associative():
    n = 2
    a = InvariantForm(n, {(0,): QQi(2), (3,): I_EXACT})
    b = InvariantForm(n, {(1,): QQi(1, 1)})
    c = InvariantForm(n, {(2,): QQi(1) - I_EXACT})
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_even_forms_commute():
    n = 2
    omega = InvariantForm(n, {(0, 2): I_EXACT, (1, 3): I_EXACT})
    eta = InvariantForm(n, {(0, 3): QQi(1), (1, 2): QQi(-1)})
    assert omega.wedge(eta) == eta.wedge(omega)


def test_bidegree_bookkeeping():
    n = 2
    f = InvariantForm(n, {(0,): QQi(1), (2,): QQi(1), (0, 3): QQi(1)})
    assert f.bidegrees() == {(1, 0), (0, 1), (1, 1)}
    assert f.project_bidegree(1, 0).coefficients == {(0,): QQi(1)}
    assert f.project_bidegree(2, 0).is_zero()
    with pytest.raises(ValueError):
        f.project_bidegree(-1, 0)


def test_canonical_reordering_sign():
    f = InvariantForm(2, {(2, 0): QQi(1)})
    assert f.coeff(0, 2) == QQi(-1)
    assert f.coeff(2, 0) == QQi(1)
    assert f.coeff(0, 0) == 0


def test_conj_involution():
    alg = hopf_algebra()
    f = basis_1form(alg, 1).wedge(basis_1form(alg, 2, barred=True)).scale(
        QQi(1, 2))
    assert f.conj().conj() == f
    assert basis_1form(alg, 1).conj() == basis_1form(alg, 1, barred=True)


@pytest.mark.parametrize("name", catalog.list_entries())
def test_d_squared_zero_on_catalog(name):
    alg, _, _ = catalog.build(name, exact=True)
    for idx in range(1, alg.n + 1):
        for barred in (False, True):
            phi = basis_1form(alg, idx, barred=barred)
            assert ext_d(alg, ext_d(alg, phi)).is_zero()
    two_form = basis_1form(alg, 1).wedge(basis_1form(alg, 2, barred=True))
    assert ext_d(alg, ext_d(alg, two_form)).is_zero()


@pytest.mark.parametrize("name", catalog.list_entries())
def test_d_commutes_with_conj(name):
    alg, h, _ = catalog.build(name, exact=True)
    f = basis_1form(alg, 1).scale(QQi(1, 1)) + basis_1form(
        alg, 2, barred=True).scale(QQi(3))
    assert ext_d(alg, f.conj()) == ext_d(alg, f).conj()


def test_d_splits_into_del_dbar():
    alg = hopf_algebra()
    _, h, _ = catalog.build("hopf", exact=True)
    omega = h.omega()
    assert del_part(alg, omega) + dbar_part(alg, omega) == ext_d(alg, omega)


def test_jacobi_detects_failure():
    # d phi1 = phi1^phi2, d phi2 = phi1^bar1 is not a valid structure set:
    # d(d phi2) has a nonvanishing phi1^phi2^bar1 component
    alg = CoframeAlgebra(2, {(1, 1, 2): 1 + 0j}, {(2, 1, 1): 1 + 0j})
    passed, residual = alg.check_jacobi()
    assert not passed
    assert residual > 0.1


@pytest.mark.parametrize("name", catalog.list_entries())
def test_jacobi_passes_on_catalog(name):
    alg, _, _ = catalog.build(name, exact=True)
    passed, residual = alg.check_jacobi()
    assert passed and residual == 0


def test_non_integrable_refused():
    alg = CoframeAlgebra(2, c={(1, 1, 2): 1 + 0j})
    with pytest.raises(NotIntegrable):
        alg.check_integrable()


def test_structure_index_validation():
    with pytest.raises(ValueError):
        CoframeAlgebra(2, {(1, 3, 4): 1 + 0j})
    with pytest.raises(ValueError):
        CoframeAlgebra(2, {(1, 2, 1): 1 + 0j})  # a-table needs j < k
    with pytest.raises(ValueError):
        CoframeAlgebra(0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        InvariantForm(2, {(0,): QQi(1)}) + InvariantForm(3, {(0,): QQi(1)})
    with pytest.raises(DimensionMismatch):
        InvariantForm(2).wedge(InvariantForm(3))
    with pytest.raises(DimensionMismatch):
        ext_d(hopf_algebra(), InvariantForm(3))
