import pytest

from qcycle.characters import (
    char_match_report,
    char_product_report,
    coeff,
    demazure_char,
    gauss_binom,
    inv_qpoch_finite,
    inv_qpoch_inf,
    level1_char,
    minimal_char,
    qpoch_finite,
    qz,
    stabilization_report,
    sum_identity_report,
    window,
)
from qcycle.laurent import LaurentPoly, substitute


def test_binomials():
    assert gauss_binom(2, 1) == qz(0) + qz(4)
    assert gauss_binom(1, 2).is_zero()
    assert coeff(gauss_binom(4, 2), 8, 0) == 2  # 1 + q + 2q^2 + q^3 + q^4
    inv = substitute(gauss_binom(2, 1), {"q4": LaurentPoly.var("q4", -1)})
    assert inv == qz(0) + qz(-4)


def test_partition_series():
    inv = inv_qpoch_inf(5)
    assert [coeff(inv, 4 * k, 0) for k in range(6)] == [1, 1, 2, 3, 5, 7]
    # (q)_2 * 1/(q)_2 = 1 through the truncation
    prod = qpoch_finite(2) * inv_qpoch_finite(2, 8)
    assert window(prod, q4_hi=32) == LaurentPoly.one()


def test_level1_char_pieces():
    chi0 = level1_char(0, 3, 4)
    assert [coeff(chi0, 4 * k, 0) for k in range(4)] == [1, 1, 2, 3]
    assert coeff(chi0, 4, 2) == 1          # m = 2 enters at q^1
    chi1 = level1_char(1, 3, 3)
    assert coeff(chi1, 1, 1) == 1          # m = 1 enters at q^(1/4)


def test_demazure_values():
    d = demazure_char(1, 1)
    assert d == qz(1, 1) + qz(1, -1)
    d2 = demazure_char(0, 2)
    assert d2 == qz(0, 0) + qz(4, 0) + qz(4, 2) + qz(4, -2)
    with pytest.raises(ValueError):
        demazure_char(0, 1)


def test_demazure_z_support_bound():
    for L2 in (1, 2, 3, 4):
        d = demazure_char(L2 % 2, L2)
        assert window(d, zmax=L2) == d


def test_stabilization_includes_partition_factor():
    for i in (0, 1):
        rep = stabilization_report(i)
        assert rep["limit_includes_partition_factor"]
        assert not rep["limit_matches_bare_sum"]


def test_sum_identity_small_cases():
    # right side at 2L = 1 is 1 + z; at 2L = 2 it is 1 + (1 + 1/q) z + z^2
    for L2 in (0, 1, 2, 3, 4):
        rep = sum_identity_report(L2, qmax=8, zmax=6)
        assert rep["passed"], rep


def test_minimal_char_shapes():
    m1 = minimal_char(1, 4)
    # q^(1/4) (z + 1/z) / (q)_1
    for k in range(4):
        assert coeff(m1, 1 + 4 * k, 1) == 1
        assert coeff(m1, 1 + 4 * k, -1) == 1
    m2 = minimal_char(2, 4)
    assert coeff(m2, 4, 0) == 1   # q * binom(2,1) = q(1+q) leading
    assert coeff(m2, 8, 0) == 2   # q^2: from (1+q)/(q)_2


def test_measured_vs_formula_from_orbit():
    from qcycle.orbit import generate_W

    for N in (0, 1, 2):
        r = generate_W(N, 4)
        rep = char_match_report(N, 4, r.dims)
        assert rep["passed"], rep


def test_product_identity_cases():
    # the report sums over as many lengths as the window needs, so every
    # cutoff and sector verifies; a half-integer cutoff pairs the opposite
    # level-one sector
    for L2 in range(6):
        for i in (0, 1):
            rep = char_product_report(L2, i, depth=3, zmax=4)
            assert rep["passed"], rep
            assert rep["level_one_sector"] == (i + L2) % 2


def test_product_window_insufficiency_flagged():
    # a length bound of 2 left L2 = 4 short: length 8 still reaches the window
    # (q-exponent >= -3, |z| <= 4), while lengths 10 and 12 fall past it.  The
    # report picks its own lengths, so it covers length 8 and is never flagged.
    L2, depth = 4, 3

    def in_window(N):
        need = depth + (N * L2 + 1) // 2 + 1
        twisted = substitute(minimal_char(N, need), {"q4": LaurentPoly.var("q4", -1)})
        return window(twisted * qz(2 * N * L2), q4_lo=-4 * depth, zmax=4)

    assert not in_window(8).is_zero()
    assert in_window(10).is_zero() and in_window(12).is_zero()
    rep = char_product_report(L2, 0, depth=depth, zmax=4)
    assert rep["passed"], rep
    assert "reason" not in rep
