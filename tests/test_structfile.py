from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cherncurv.forms import NotIntegrable
from cherncurv.scalars import QQi
from cherncurv.structfile import (ParseError, format_complex, parse_complex,
                                  parse_structure, print_structure)

HOPF_TEXT = """dim 2
d phi1 = i phi1^phi2 + i phi1^bar2
d phi2 = -i phi1^bar1
metric surface r=1 s=1 u=0
"""


def test_parse_complex_literals():
    assert parse_complex("i") == QQi(0, 1)
    assert parse_complex("-i") == QQi(0, -1)
    assert parse_complex("3/4") == QQi(Fraction(3, 4))
    assert parse_complex("1+2i") == QQi(1, 2)
    assert parse_complex("2-i") == QQi(2, -1)
    assert parse_complex("1/2+1/3i") == QQi(Fraction(1, 2), Fraction(1, 3))
    assert parse_complex("-5") == QQi(-5)
    v = parse_complex("1.5")
    assert isinstance(v, complex) and v == 1.5
    assert parse_complex("0.25i") == 0.25j
    with pytest.raises(ValueError):
        parse_complex("banana")
    with pytest.raises(ValueError):
        parse_complex("1+")


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@given(rationals, rationals)
def test_complex_literal_round_trip(a, b):
    v = QQi(a, b)
    assert parse_complex(format_complex(v)) == v


@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10,
                                                      allow_nan=False))
def test_float_literal_round_trip(a, b):
    v = complex(a, b)
    back = parse_complex(format_complex(v))
    assert complex(back) == pytest.approx(v, abs=1e-15)


def test_parse_hopf_file():
    doc = parse_structure(HOPF_TEXT)
    alg = doc.algebra
    assert alg.n == 2
    assert alg.a == {(1, 1, 2): QQi(0, 1)}
    assert alg.b == {(1, 1, 2): QQi(0, 1), (2, 1, 1): QQi(0, -1)}
    assert doc.metric_params == {"r": QQi(1), "s": QQi(1), "u": QQi(0)}
    assert doc.algebra.check_jacobi()[0]


def test_print_parse_identity():
    doc = parse_structure(HOPF_TEXT)
    text = print_structure(doc.algebra, doc.metric_params)
    doc2 = parse_structure(text)
    assert doc2.algebra.a == doc.algebra.a
    assert doc2.algebra.b == doc.algebra.b
    assert print_structure(doc2.algebra, doc2.metric_params) == text


def test_zero_differential_line():
    doc = parse_structure("dim 2\nd phi1 = 0\nd phi2 = 0\n")
    assert not doc.algebra.a and not doc.algebra.b and not doc.algebra.c


def test_duplicate_terms_merge():
    doc = parse_structure(
        "dim 2\nd phi1 = phi1^phi2 + phi1^phi2 - i phi1^bar1\n")
    assert doc.algebra.a == {(1, 1, 2): QQi(2)}
    assert doc.algebra.b == {(1, 1, 1): QQi(0, -1)}


def test_antisymmetric_normalization():
    doc = parse_structure("dim 2\nd phi1 = phi2^phi1\n")
    assert doc.algebra.a == {(1, 1, 2): QQi(-1)}
    cancel = parse_structure("dim 2\nd phi1 = phi1^phi2 + phi2^phi1\n")
    assert not cancel.algebra.a


def test_non_integrable_parses_but_refuses_geometry():
    doc = parse_structure("dim 2\nd phi1 = bar1^bar2\n")
    with pytest.raises(NotIntegrable):
        doc.algebra.check_integrable()


def test_jacobi_reported_not_raised():
    doc = parse_structure("dim 2\nd phi1 = phi1^phi2\nd phi2 = phi1^bar1\n")
    passed, residual = doc.algebra.check_jacobi()
    assert passed is False
    assert residual > 0


def errors_with_position(text, line, col_min=1):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == line
    assert err.value.col >= col_min
    return err.value


def test_error_positions():
    errors_with_position("d phi1 = phi1^phi2\n", 1)       # dim missing first
    errors_with_position("dim 2\ndim 2\n", 2)             # duplicate dim
    errors_with_position("dim 2\nd phi3 = 0\n", 2)        # index range
    errors_with_position("dim 2\nd phi1 = phi1^phi9\n", 2)
    errors_with_position("dim 2\nd phi1 = wibble\n", 2)
    errors_with_position("dim 2\nmetric surface q=1\n", 2)
    errors_with_position("dim 2\nmetric torus r=1\n", 2)
    errors_with_position("dim x\n", 1)
    errors_with_position("", 1)
    err = errors_with_position("dim 2\n  junk line\n", 2)
    assert err.col == 3  # leading indentation counted


@pytest.mark.parametrize("term", ["phi1^phi1", "phi1^phi2"])
def test_error_column_after_a_term(term):
    # phi1^phi1 vanishes and is dropped, but still takes up its columns
    err = errors_with_position(f"dim 2\nd phi1 = {term} + wibble\n", 2)
    assert err.col == 22


def test_comments_and_blank_lines():
    doc = parse_structure("# header\n\ndim 2  # trailing\n"
                          "d phi1 = i phi1^phi2  # structure\n")
    assert doc.algebra.a == {(1, 1, 2): QQi(0, 1)}


def test_mixed_literals_promote_the_whole_file():
    doc = parse_structure("dim 2\nd phi1 = 1/2 phi1^phi2 - 0.5 phi1^phi2"
                          " + i phi1^bar1\nmetric surface r=1 s=1/2 u=0.5\n")
    assert not doc.algebra.a  # 1/2 - 0.5 cancels once both are floats
    assert doc.algebra.b == {(1, 1, 1): 1j}
    assert not doc.algebra.exact
    assert doc.metric_params == {"r": 1.0, "s": 0.5, "u": 0.5 + 0j}
    assert type(doc.metric_params["r"]) is float


def test_metric_parameters_must_be_real():
    with pytest.raises(ValueError, match="ell must be real"):
        parse_structure("dim 2\nmetric surface r=1 s=1 ell=2i\n")
