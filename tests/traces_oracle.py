"""The dense kind-2 trace of the Chern connection: the test oracle for the
scan's sparse kernel ``cherncurv.invariant._ric2``.

The same identities as ``invariant._connection_traces`` states, evaluated
by einsums over the whole n^3 table of B, zero entries included:

    U^l_{a i} = h^{i jbar} B^l_{a j},  t_l = U^l_{i i},
    gamma^m_{i l} = - h^{m jbar} h_{i kbar} conj(B^k_{j l}),
    K^m_a = sum_l (gamma^m_{a l} t_l - B^m_{a l} conj(t_l)
                   + gamma^m_{l i} U^l_{a i} - U^m_{l i} gamma^l_{a i}),
    Ric2_{a bbar} = K^m_a h_{m bbar}.
"""

import numpy as np


def dense_ric2(b, hs, up):
    """Ric2 [a, b, M] of trailing-M (h, up) and B, in the arithmetic of
    the operands; K keeps its l-sums apart, so that the commutator's
    l = m = a products cancel before the sum."""
    gamma = -np.einsum("mjM,ikM,kjl->milM", up, hs, np.conj(b))
    u = np.einsum("ijM,laj->laiM", up, b)
    t = u.diagonal(axis1=1, axis2=2).sum(axis=-1)
    k = np.einsum("mliM,laiM->malM", gamma, u)
    k -= np.einsum("mliM,laiM->malM", u, gamma)
    k += gamma * t
    k -= b[..., None] * np.conj(t)
    return np.einsum("maM,mbM->abM", k.sum(axis=2), hs)
