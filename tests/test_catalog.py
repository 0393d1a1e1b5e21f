import math
from fractions import Fraction

import numpy as np
import pytest

from cherncurv import catalog, invariant as inv, structfile
from cherncurv.scalars import QQi

ENTRIES = catalog.list_entries()


def test_entry_listing():
    assert len(ENTRIES) == 9
    assert ENTRIES == ["flat-torus", "hopf", "inoue-sm", "inoue-spm",
                       "kodaira-primary", "kodaira-secondary", "snow-s5",
                       "ovando-r2r2", "ovando-r4"]


def test_unknown_entry_and_quantity():
    with pytest.raises(catalog.UnknownEntry):
        catalog.get("nope")
    with pytest.raises(catalog.UnknownQuantity):
        catalog.expected("hopf", "nope")


def test_out_of_scope_documented():
    assert set(catalog.OUT_OF_SCOPE) == {"podesta-c-manifolds",
                                         "first-chern-einstein-uniqueness"}
    for text in catalog.OUT_OF_SCOPE.values():
        assert len(text) > 40


# ---------------------------------------------------------------------------
# closed-form expected values at pinned points

def test_expected_closed_forms():
    assert catalog.expected("inoue-sm", "S_Ch") == Fraction(-1, 2)
    assert catalog.expected("snow-s5", "Ric2_22",
                            {"u": QQi(Fraction(1, 2))}) == Fraction(1, 9)
    assert catalog.expected("ovando-r4", "S_Ch") == -2
    assert catalog.expected("ovando-r2r2",
                            "Ric2_diag_matches_minus_omega") is True
    assert catalog.expected("hopf", "einstein2_lambda", {"r": 2}) == \
        Fraction(1, 2)


def test_only_when_guard():
    with pytest.raises(ValueError):
        catalog.expected("ovando-r2r2", "einstein2_lambda", {"r": 2})


def test_exact_mode_rejects_floats():
    with pytest.raises(ValueError):
        catalog.verify("hopf", {"u": 0.5j}, mode="exact")
    with pytest.raises(ValueError):
        catalog.verify("hopf", mode="typo")


# ---------------------------------------------------------------------------
# full verification sweep

@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ENTRIES)
def test_verify_all_points(name, mode):
    entry = catalog.get(name)
    for point in entry.points or [entry.defaults]:
        report = catalog.verify(name, point, mode=mode)
        failures = [r.quantity for r in report.rows
                    if r.asserted and not r.passed]
        assert not failures, f"{name} at {point}: {failures}"
        assert report.all_passed


def test_reported_rows_not_asserted():
    report = catalog.verify("hopf", mode="exact")
    reported = {r.quantity for r in report.rows if not r.asserted}
    assert reported == {"S3", "Theta_1122"}
    for r in report.rows:
        if not r.asserted:
            assert r.passed is None and r.note


def test_hopf_fixup_ties_s_to_r():
    _, h, p = catalog.build("hopf", {"r": 2})
    assert p["s"] == p["r"] == 2
    assert h.h[1][1] == QQi(2)


# ---------------------------------------------------------------------------
# non-existence machinery

@pytest.mark.parametrize("name", catalog.NONEXISTENCE_ENTRIES)
def test_certificates_negative_at_points(name):
    entry = catalog.get(name)
    assert entry.certificate is not None
    for point in entry.points:
        alg, h, p = catalog.build(name, point, exact=False)
        lam, residual = inv.einstein_residual(2, alg, h)
        assert residual > 1e-6
        val = entry.certificate(p["r"], p["s"], p["u"], lam)
        assert val < 0


# The certificates point by point in Python float and complex arithmetic,
# as the non-existence proofs state them, powers and moduli as products.
def _uu(u):
    return (u * u.conjugate()).real


def _python_inoue_sm(r, s, u, lam):
    d = r * r * (s * s) - _uu(u)
    return 8 * lam * (r * r) * (d * d) - r * r * (r * r) * (
        4 * (r * r) * (s * s) + 5 * _uu(u))


def _python_inoue_spm(r, s, u, lam):
    d = r * r * (s * s) - _uu(u)
    return 2 * lam * (r * r) * (d * d) - r * r * (r * r) * (
        r * r * (r * r) + r * r * (s * s) + _uu(u) + 2 * (u * u).real)


def _python_kodaira_primary(r, s, u, lam):
    d = r * r * (s * s) - _uu(u)
    s6 = s * s * (s * s) * (s * s)
    if _uu(u) > 1e-24:
        x = 2 * lam * (d * d) - s6
        return -math.sqrt(_uu(u) * (x * x))
    return -(r * r * s6)


def _python_kodaira_secondary(r, s, u, lam):
    if _uu(u) > 1e-24:
        d = r * r * (s * s) - _uu(u)
        f = r * r * (r * r) + s * s * (s * s)
        return -(s * s * math.sqrt(_uu(u) * (f * f + d * d)))
    return -(s * s / (4 * (r * r)))


PYTHON_CERTIFICATES = {"inoue-sm": _python_inoue_sm,
                       "inoue-spm": _python_inoue_spm,
                       "kodaira-primary": _python_kodaira_primary,
                       "kodaira-secondary": _python_kodaira_secondary}


@pytest.mark.parametrize("name", catalog.NONEXISTENCE_ENTRIES)
def test_certificate_arrays_match_points_bit_for_bit(name):
    grid = inv.default_surface_grid([0.25, 0.7, 1.5, 3.0, 11.0],
                                    [0.3, 1.0, 2.75, 1e-2])
    grid = np.concatenate([grid, [[1.0, 2.0, 1e-13], [1.0, 2.0, 2e-12j]]])
    r, s, u = grid[:, 0].real, grid[:, 1].real, grid[:, 2]
    assert np.count_nonzero(u == 0) == 20
    lam = np.random.default_rng(5).normal(scale=3.0, size=len(u))
    cert = catalog.get(name).certificate
    rows = list(zip(r.tolist(), s.tolist(), u.tolist(), list(lam)))
    got = np.asarray(cert(r, s, u, lam), dtype=float)
    points = np.array([float(cert(*row)) for row in rows])
    python = np.array([PYTHON_CERTIFICATES[name](*row) for row in rows])
    assert got.tobytes() == points.tobytes() == python.tobytes()


def test_inoue_spm_lemma():
    entry = catalog.get("inoue-spm")
    for point in entry.points:
        _, _, p = catalog.build("inoue-spm", point, exact=True)
        assert entry.lemma(p)


@pytest.mark.parametrize("name", catalog.NONEXISTENCE_ENTRIES)
def test_scan_entry_quick(name):
    grid = inv.default_surface_grid(r_values=[0.5, 1.0, 2.0],
                                    s_values=[0.5, 1.0, 2.0])
    report = catalog.scan_entry(name, kind=2, grid=grid)
    assert report.entry == name
    assert report.min_residual > 1e-3
    assert report.certificate_ok
    assert report.certificate_worst < 0


def test_scan_drops_degenerate_boundary_row():
    # |u| = r s up to rounding: r^2 s^2 - |u|^2 rounds positive, so the row
    # passes the admissibility mask, but its h is singular in floats
    edge = (4.2078405135370796, 4.72617142078429,
            -19.649257210196208 + 3.065695474006352j)
    report = catalog.scan_entry("hopf", 2, grid=[edge, (1, 1, 0.5)])
    assert report.count == 1
    assert report.argmin == (1.0, 1.0, 0.5 + 0j)


# ---------------------------------------------------------------------------
# structure-file round trip

@pytest.mark.parametrize("name", ENTRIES)
def test_structure_round_trip(name):
    text = catalog.to_structure_text(name)
    doc = structfile.parse_structure(text)
    assert doc.algebra.check_jacobi()[0]
    assert structfile.print_structure(doc.algebra, doc.metric_params) == text
    alg, _, _ = catalog.build(name, exact=True)
    assert doc.algebra.a == alg.a
    assert doc.algebra.b == alg.b
    assert not doc.algebra.c
