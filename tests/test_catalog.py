from fractions import Fraction

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


def test_inoue_spm_lemma():
    entry = catalog.get("inoue-spm")
    for point in entry.points:
        _, _, p = catalog.build("inoue-spm", point, exact=True)
        assert entry.lemma(p)


@pytest.mark.parametrize("name", catalog.NONEXISTENCE_ENTRIES)
def test_scan_entry_quick(name):
    grid = inv.default_surface_grid(r_values=[0.5, 1.0, 2.0],
                                    s_values=[0.5, 1.0, 2.0],
                                    radii=3, phases=4)
    report = catalog.scan_entry(name, kind=2, grid=grid)
    assert report.entry == name
    assert report.min_residual > 1e-3
    assert report.certificate_ok
    assert report.certificate_worst < 0


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
