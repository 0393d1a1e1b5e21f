"""First-order rounding bounds of one float Chern solve, written out by
hand: the oracle for ``CurvatureTensor.bound``.

The package bounds h^{-1}, gamma, R and Theta with one rule,
``invariant._bound``, applied to the formulas of the solve.  Here each
bound is expanded formula by formula on absolute values, every product
carrying err(A) |B| + k u |A| |B| with k the operand count plus the number
of terms each entry sums.  The two must agree bit for bit.
"""

import numpy as np

from cherncurv.scalars import UNIT_ROUNDOFF


def rounding_bounds(b, h, up, gamma, r):
    """Bounds of (up, gamma, R, Theta) keyed as ``CurvatureTensor.bound``:
    h^{-1} by |h^{-1}| |h| |h^{-1}|, gamma = -h^{-1} h conj(B) through it,
    and R and Theta by their formulas."""
    n, u = len(h), UNIT_ROUNDOFF
    a_up, a_h, a_b = abs(up), abs(h), abs(b)
    e_up = (3 + n * n) * u * np.einsum("ka,ba,bl->kl", a_up, a_h, a_up)
    e_gamma = np.einsum("mj,ik,kjl->mil", e_up + (3 + n * n) * u * a_up,
                        a_h, a_b)
    # the terms of R, gamma carrying its bound and the k u term
    g = e_gamma + (2 + n) * u * abs(gamma)
    e_r = (np.einsum("mkl,lab->mkab", g, a_b)
           + (2 + n) * u * np.einsum("mkl,lba->mkab", a_b, a_b)
           + np.einsum("mla,lkb->mkab", g, a_b)
           + np.einsum("mlb,lka->mkab", a_b, g))
    e_theta = np.einsum("mkij,ml->ijkl", e_r + (2 + n) * u * abs(r), a_h)
    return {"up": e_up, "gamma": e_gamma, "r_upper": e_r,
            "lowered": e_theta}
