import random
from itertools import combinations

from qcycle.cyclotomic import I, i_power
from qcycle.laurent import LaurentPoly, RationalFn, sym_elementary
from qcycle.fermion import (
    FermionOp,
    GrassmannElem,
    alpha_map,
    apply_psi,
    apply_psistar,
    beta_map,
    check_g_identities,
    coeff_A,
    cross_check,
    ext_mul,
    g_basis,
    halfcurrent,
    iso_from_wedge,
    iso_to_wedge,
    sigma_ops,
    t_eigenvalue,
)
from qcycle.wedge import WedgeElem, kernel_F
from qcycle.sampling import random_laurent, random_wedge

one = LaurentPoly.one()


def test_g_basis_small():
    assert g_basis(1, 1) == one
    X = LaurentPoly.var("X")
    assert g_basis(2, 1) == one - LaurentPoly.var("z2") * X
    assert g_basis(2, 2) == one + LaurentPoly.var("z1") * X


def test_iso_wedge_of_two_basis_vectors():
    e = GrassmannElem(2, {(1, 2): one})
    img = iso_to_wedge(e)
    assert img == WedgeElem(2, 2, {(0, 1): sym_elementary(2, 1)})


def test_iso_round_trip():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for l in range(0, n + 1):
            P = random_wedge(rng, n, l)
            back = iso_to_wedge(iso_from_wedge(P))
            assert back == P, (n, l)


def _random_grassmann(rng, n, l):
    subsets = [tuple(c) for c in combinations(range(1, n + 1), l)]
    return GrassmannElem(n, {s: random_laurent(rng, n) for s in rng.sample(
        subsets, rng.randint(1, len(subsets)))})


def test_ext_mul_matches_wedge_through_iso():
    # the psi side counts from 1 and the X side from 0; the shared signed
    # subset product must agree with itself across the isomorphism
    rng = random.Random(29)
    for n in range(1, 5):
        for la in range(0, n + 1):
            for lb in range(0, n + 1):
                a = _random_grassmann(rng, n, la)
                b = _random_grassmann(rng, n, lb)
                prod = ext_mul(a, b)
                want = iso_to_wedge(a).wedge(iso_to_wedge(b))
                assert iso_to_wedge(prod) == want, (n, la, lb)


def test_normal_order_anticommutation():
    # psi*_a psi_a + psi_a psi*_a = 1
    n = 3
    op = FermionOp.from_words(n, [(one, (("s", 2), ("p", 2))),
                                  (one, (("p", 2), ("s", 2)))])
    assert op == FermionOp.from_words(n, [(one, ())])


def test_normal_order_confluent_under_shuffles():
    # normalize words built in scrambled orders; action decides equality
    rng = random.Random(3)
    n = 3
    base = [("p", 1), ("s", 2), ("p", 2), ("s", 1)]
    ref = FermionOp.from_words(n, [(one, tuple(base))])
    e = GrassmannElem(n, {(1, 2): one, (2, 3): LaurentPoly.var("z1")})
    want = ref.apply(e)
    got = apply_psi(1, apply_psistar(2, apply_psi(2, apply_psistar(1, e))))
    assert want == got


def test_A1_matches_single_variable_kernel():
    assert coeff_A(1, 1) == kernel_F(1)


def test_g_identities():
    for n in (1, 2, 3, 4, 5):
        assert check_g_identities(n), n


def test_t_eigenvalue():
    assert t_eigenvalue(3, 1) == i_power(1)
    assert t_eigenvalue(4, 1) == i_power(2)


def test_sigma_ops_small():
    s1, s2 = sigma_ops(2)
    e = GrassmannElem.vacuum(2)
    # Sigma_1 . 1 = -psi_1 + psi_2 which maps to e1 X^1
    img = iso_to_wedge(s1.apply(e))
    assert img == WedgeElem(2, 1, {(1,): sym_elementary(2, 1)})
    img2 = iso_to_wedge(s2.apply(e))
    assert img2 == WedgeElem(2, 2, {(0, 1): -sym_elementary(2, 1)})


def test_alpha_is_involutive():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(5):
            words = []
            for _ in range(rng.randint(1, 2)):
                w = tuple(
                    (rng.choice("ps"), rng.randint(1, n))
                    for _ in range(rng.randint(1, 3))
                )
                words.append((LaurentPoly.var("z1", rng.randint(-1, 1)), w))
            op = FermionOp.from_words(n, words)
            assert alpha_map(alpha_map(op)) == op


def test_beta_squared_parity():
    rng = random.Random(6)
    for n in (2, 3):
        for parity in (0, 1):
            length = 2 if parity == 0 else 1
            w = tuple((rng.choice("ps"), rng.randint(1, n)) for _ in range(length))
            op = FermionOp.from_words(n, [(one, w)])
            if op.terms == {}:
                continue
            back = beta_map(beta_map(op))
            sign = (-1) ** ((n + 1) * parity)
            assert back == (op if sign > 0 else -op), (n, parity)


def test_raising_equals_alpha_transport():
    # X+_{>=0}(t) = -i T t^-1 alpha(X-_{>0}(t)) per degree, as operators
    t_inv = RationalFn.from_poly(LaurentPoly.var("t", -1))
    for n in (2, 3, 4):
        lowering = halfcurrent("xminus", "zero", n)
        transported = alpha_map(lowering)
        for l in (1, 2):
            if l > n:
                continue
            # T acts after psi*, so on the l-1 image
            scale = t_eigenvalue(n, l - 1) * (-I)
            rhs = transported.scaled(t_inv).scaled(scale)
            lhs = halfcurrent("xplus", "zero", n, l)
            assert lhs == rhs, (n, l)


def test_cross_check_lowering():
    rep = cross_check("xminus", 2, 0, 3, 2, seed=11)
    assert rep["passed"], rep
    assert rep["scalar"] == "1"
    rep2 = cross_check("xminus2", 3, 0, 2, 2, seed=12)
    assert rep2["passed"], rep2


def test_cross_check_raising():
    rep = cross_check("xplus", 2, 1, 3, 2, seed=13)
    assert rep["passed"], rep
    assert rep["scalar"] == "1"
    rep2 = cross_check("xplus2", 3, 2, 2, 2, seed=14)
    assert rep2["passed"], rep2


def test_cross_check_diagonal():
    rep = cross_check("aplus", 2, 1, 2, 3, seed=15)
    assert rep["passed"], rep
    rep2 = cross_check("aminus", 2, 1, 2, 3, seed=16)
    assert rep2["passed"], rep2


def test_shifted_generator_decompositions():
    from qcycle.fermion import sigma_phi_forms

    for l in (1, 2, 3):
        s1, rhs1, s2, rhs2 = sigma_phi_forms(l)
        assert s1 == rhs1, l
        assert s2 == rhs2, l


def test_shifted_block_multiplication_injective():
    from qcycle.fermion import sigma_block_injective

    for l in (2, 3):
        assert sigma_block_injective(l), l
