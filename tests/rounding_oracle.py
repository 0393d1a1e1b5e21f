"""First-order rounding bounds of one float Chern solve, written out by
hand: the oracle for ``CurvatureTensor.bound`` and for the bounds of the
traces the tensor takes from the connection.

The package bounds h^{-1}, gamma, R, Theta and those traces with one rule,
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


def trace_bounds(b, h, up, t, g, ric1, ric3):
    """Bounds of (Ric1, Ric3, S, S3) keyed as the solved tensor's
    ``ric_bound(1)``, ``ric_bound(3)``, ``s_chern[1]`` and ``s_third[1]``,
    through the connection kernel's steps: Ric1 = X + X^* with
    X = -conj(B^m_{m l}) B^l_{a b}; t = h^{-1} B, g = -h conj(t),
    Ric3 = g B - B conj(B); S and S3 the traces against h^{-1}."""
    n, u = len(h), UNIT_ROUNDOFF
    a_up, a_h, a_b = abs(up), abs(h), abs(b)
    e_up = (3 + n * n) * u * np.einsum("ka,ba,bl->kl", a_up, a_h, a_up)
    e_x = (2 + n * n) * u * np.einsum("mml,lab->ab", a_b, a_b)
    e_ric1 = e_x + e_x.T
    e_t = np.einsum("ij,lij->l", e_up + (2 + n * n) * u * a_up, a_b)
    e_g = np.einsum("lk,k->l", a_h, e_t + (2 + n) * u * abs(t))
    e_ric3 = (np.einsum("l,lab->ab", e_g + (2 + n) * u * abs(g), a_b)
              + (2 + n * n) * u * np.einsum("ial,lbi->ab", a_b, a_b))

    def trace(ric, e_ric):
        return (np.einsum("ab,ab->", e_up + (2 + n * n) * u * a_up, abs(ric))
                + np.einsum("ab,ab->", a_up, e_ric))

    return {1: e_ric1, 3: e_ric3, "S": trace(ric1, e_ric1),
            "S3": trace(ric3, e_ric3)}
