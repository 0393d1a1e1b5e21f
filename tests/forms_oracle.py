"""Form-algebra Chern curvature: a test oracle for the tensor formula.

Builds Theta^m_k = d theta^m_k + theta^m_l ^ theta^l_k from the connection
forms with ``ext_d`` and ``wedge``, independently of the closed formula in
``cherncurv.invariant``, and lowers it with the metric by explicit loops.
"""

from itertools import product

from cherncurv import invariant as inv
from cherncurv.forms import ext_d
from cherncurv.scalars import QQi


def forms_curvature(alg, h):
    """(r_upper, lowered) as nested lists, indexed like
    :class:`cherncurv.invariant.CurvatureTensor`.

    Asserts that every Theta^m_k is of type (1,1).
    """
    theta = inv.chern_connection(alg, h).theta
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
