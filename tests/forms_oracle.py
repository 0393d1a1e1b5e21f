"""Form-algebra evaluations of the invariant quantities: test oracles for
the tensor contractions in ``cherncurv.invariant``.

Each routine builds its quantity from the connection 1-forms with
``ext_d``, ``wedge`` and the bidegree projections, independently of the
closed formulas in ``cherncurv.invariant``:

* the Chern curvature Theta^m_k = d theta^m_k + theta^m_l ^ theta^l_k,
  lowered with the metric by explicit loops;
* the torsion forms d phi^i + theta^i_j ^ phi^j and their trace;
* the Lee form, by least squares over the 1-form monomials of
  d omega^{n-1} = theta ^ omega^{n-1};
* del dbar omega^{n-1}, for the Gauduchon test;
* the Chern-Weil forms c1 and c2, and the Bogomolov-Lubke pairing, by
  wedging them with omega^{n-2}.
"""

import math
from itertools import product

import numpy as np

from cherncurv import invariant as inv
from cherncurv.forms import InvariantForm, dbar_part, del_part, ext_d
from cherncurv.scalars import QQi, is_zero


def forms_connection(alg, h):
    """theta[m][k] = gamma^m_{k l} phi^l + B^m_{k l} bar(phi)^l, with B read
    from the structure table and gamma from the solved tensor of
    ``chern_curvature``."""
    n = alg.n
    gamma = inv.chern_curvature(alg, h).gamma.tolist()
    theta = [[InvariantForm(n, {(l,): gamma[m][k][l] for l in range(n)})
              for k in range(n)] for m in range(n)]
    for (i, j, k), v in alg.b.items():
        theta[i - 1][j - 1] = theta[i - 1][j - 1] + InvariantForm(
            n, {(k - 1 + n,): v})
    return theta


def forms_curvature(alg, h):
    """(r_upper, lowered) as nested lists, indexed like
    :class:`cherncurv.invariant.CurvatureTensor`.

    Asserts that every Theta^m_k is of type (1,1).
    """
    theta = forms_connection(alg, h)
    n = alg.n
    zero = QQi() if h.exact else 0j
    r_upper = [[[[zero] * n for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
    for m, k in product(range(n), repeat=2):
        big = ext_d(alg, theta[m][k])
        for l in range(n):
            big = big + theta[m][l].wedge(theta[l][k])
        bad = big.project_bidegree(2, 0) + big.project_bidegree(0, 2)
        assert bad.is_zero(tol_scale=max(big.max_abs(), 1.0)), \
            "endomorphism curvature is not of type (1,1)"
        for i, j in product(range(n), repeat=2):
            r_upper[m][k][i][j] = big.coeff(i, j + n)
    lowered = [[[[zero] * n for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
    for i, j, k, l in product(range(n), repeat=4):
        acc = zero
        for m in range(n):
            acc = acc + r_upper[m][k][i][j] * h.h[m][l]
        lowered[i][j][k][l] = acc
    return r_upper, lowered


def forms_torsion(alg, h):
    """(taus, trace): the torsion 2-forms d phi^i + theta^i_j ^ phi^j and
    the trace 1-form T^k_{j k} phi^j.

    Asserts that every torsion form is of type (2,0).
    """
    theta = forms_connection(alg, h)
    n = alg.n
    taus = []
    for i in range(n):
        tau = ext_d(alg, alg.basis_1form(i + 1))
        for j in range(n):
            tau = tau + theta[i][j].wedge(alg.basis_1form(j + 1))
        assert (tau.project_bidegree(1, 1) + tau.project_bidegree(0, 2)
                ).is_zero(tol_scale=max(tau.max_abs(), 1.0)), \
            "torsion is not of type (2,0)"
        taus.append(tau)
    # coeff(j, k) = T^k_{jk}, signed by the order of phi^j ^ phi^k
    trace = InvariantForm(n, {(j,): sum(taus[k].coeff(j, k)
                                        for k in range(n))
                              for j in range(n)})
    return taus, trace


def _omega_power(h, k):
    """omega^k, with omega^0 the constant 1."""
    power = InvariantForm(h.n, {(): 1})
    for _ in range(k):
        power = power.wedge(h.omega())
    return power


def lstsq_lee_form(alg, h):
    """(theta, residual): the 1-form solving d omega^{n-1} =
    theta ^ omega^{n-1} by float least squares over the 2n covectors, and
    the largest coefficient of the residual of that solve."""
    n = alg.n
    power = _omega_power(h, n - 1)
    target = ext_d(alg, power)
    basis = [alg.basis_1form(i + 1, barred=bar)
             for bar in (False, True) for i in range(n)]
    wedges = [e.wedge(power) for e in basis]
    keys = sorted({k for w in wedges for k in w.coefficients}
                  | set(target.coefficients))
    a = np.array([[complex(w.coefficients.get(k, 0)) for w in wedges]
                  for k in keys])
    rhs = np.array([complex(target.coefficients.get(k, 0)) for k in keys])
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    residual = float(np.max(np.abs(a @ sol - rhs))) if keys else 0.0
    theta = InvariantForm(n, {(i + bar * n,): sol[bar * n + i]
                              for bar in (0, 1) for i in range(n)})
    return theta, residual


def ddbar_gauduchon(alg, h):
    """(ok, residual, scale) for del dbar omega^{n-1} = 0, with the largest
    coefficient as residual and the test relative to
    scale = max(|omega^{n-1}|, 1)."""
    power = _omega_power(h, alg.n - 1)
    ddc = del_part(alg, dbar_part(alg, power))
    scale = max(power.max_abs(), 1.0)
    return ddc.is_zero(tol_scale=scale), float(ddc.max_abs()), scale


def chern_weil(curv):
    """(c1, c2) as invariant forms: the degree-2 and degree-4 parts of
    det(I + sqrt(-1) Theta / 2 pi)."""
    n = curv.n
    r = curv.r_upper.astype(complex).tolist()
    theta_end = [[InvariantForm(n, {(i, j + n): r[m][k][i][j]
                                    for i in range(n) for j in range(n)})
                  for k in range(n)] for m in range(n)]
    tr = InvariantForm(n)
    for m in range(n):
        tr = tr + theta_end[m][m]
    trtr = InvariantForm(n)
    for m in range(n):
        for l in range(n):
            trtr = trtr + theta_end[m][l].wedge(theta_end[l][m])
    c1 = tr.scale(1j / (2 * math.pi))
    c2 = (tr.wedge(tr) - trtr).scale(-1.0 / (8 * math.pi ** 2))
    return c1, c2


def wedge_bogomolov_lubke(curv, h):
    """((n-1) c1^2 - 2n c2) ^ omega^{n-2} against omega^n / n!, as a
    complex number, from the Chern-Weil forms of :func:`chern_weil`."""
    n = curv.n
    c1, c2 = chern_weil(curv)
    wpow = _omega_power(h, n - 2)
    wpow.coefficients = {k: complex(v) for k, v in wpow.coefficients.items()}
    lhs = (c1.wedge(c1).scale(float(n - 1)) - c2.scale(2.0 * n)).wedge(wpow)
    vol = _omega_power(h, n).coefficients[tuple(range(2 * n))]
    assert not is_zero(vol), "volume form vanishes"
    key = tuple(range(2 * n))
    return (complex(lhs.coefficients.get(key, 0))
            / (complex(vol) / math.factorial(n)))
