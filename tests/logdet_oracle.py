"""Ric1 of a chart metric as - del delbar log det h: the test oracle for
the chart backend's Ric1, which ``cherncurv.chart.ricci_matrices_at``
contracts from the curvature tensor without forming det h."""

from cherncurv.chart import _holo_jets, hd_log
from cherncurv.scalars import mat_det


def ric1_logdet_at(field, x):
    """- del delbar log det h at the real point x, as a coefficient
    matrix."""

    def logdet(z):
        return hd_log(mat_det(field.fn(z)))

    return -_holo_jets(logdet, x)[3]
