import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossdiff import (InputError, LambdaSpec, MatrixPolynomial, ModelSpec,
                       PolynomialMap, ReactionSpec, Region, classic_skt,
                       compute_lambda_l, eval_A, eval_lambda, eval_P,
                       eval_reaction, load_model,
                       model_from_dict, model_to_dict, reaction_zero_order,
                       save_model, verify_structure, with_sigma)
import crossdiff.model as model_mod
from crossdiff.cli import _jsonable
from crossdiff.model import _opnorms, _sym_mineigs

from conftest import assert_within_gamma, exact, run_python


def diag_model(*diag):
    """Constant diagonal diffusion matrix via linear P."""
    m = len(diag)
    terms = []
    for i, d in enumerate(diag):
        ex = [0] * m
        ex[i] = 1
        terms.append([(float(d), tuple(ex))])
    return ModelSpec(P=PolynomialMap(m, terms), lam=LambdaSpec(1.0))


def random_poly_model(rng, m):
    """Random polynomial map of total degree <= 3, no constant terms."""
    terms = []
    for _ in range(m):
        comp = []
        for _ in range(rng.integers(1, 4)):
            deg = int(rng.integers(1, 4))
            ex = np.zeros(m, dtype=int)
            for _ in range(deg):
                ex[rng.integers(0, m)] += 1
            comp.append((float(rng.uniform(-2, 2)), tuple(int(e) for e in ex)))
        terms.append(comp)
    return ModelSpec(P=PolynomialMap(m, terms), lam=LambdaSpec(1.0))


def fd_jacobian(spec, u, h=1e-6):
    u = np.asarray(u, dtype=float)
    m = u.shape[-1]
    out = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        out[:, j] = (eval_P(spec, u + e) - eval_P(spec, u - e)) / (2 * h)
    return out


class TestEvalP:
    def test_identity_coefficients(self):
        spec = classic_skt(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert np.allclose(eval_P(spec, [3.0, 5.0]), [3.0, 5.0])

    def test_quadratic_first_component(self):
        # a1*u + a11*u^2 + a12*u*v = 1 + 1 + 2 at (1, 1)
        spec = classic_skt(1.0, 1.0, 1.0, 2.0, 0.0, 0.0)
        assert eval_P(spec, [1.0, 1.0])[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("maker", [
        lambda: classic_skt(1.0, 2.0, 1.0, 1.0, 1.0, 1.0),
        lambda: random_poly_model(np.random.default_rng(0), 3),
    ])
    def test_vanishes_at_zero(self, maker):
        spec = maker()
        assert np.all(eval_P(spec, np.zeros(spec.m)) == 0.0)

    def test_batch_evaluation(self, skt):
        U = np.random.default_rng(1).uniform(0, 2, size=(7, 5, 2))
        batch = eval_P(skt, U.transpose(2, 0, 1))
        for i, j in np.ndindex(7, 5):
            assert np.allclose(batch[:, i, j], eval_P(skt, U[i, j]))

    def test_dimension_mismatch(self, skt):
        with pytest.raises(InputError, match="component-major"):
            eval_P(skt, [1.0, 2.0, 3.0])


class TestEvalA:
    def test_identity_everywhere(self):
        spec = classic_skt(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        for u in ([0.0, 0.0], [3.0, 7.0], [-1.0, 2.0]):
            assert np.allclose(eval_A(spec, u), np.eye(2))
        # one matrix per point of a (2, 3, 3) state, component-major
        A = eval_A(spec, np.random.default_rng(0).uniform(-2.0, 2.0, (2, 3, 3)))
        assert A.shape == (2, 2, 3, 3)
        assert np.allclose(A.transpose(2, 3, 0, 1), np.eye(2))

    def test_origin_is_diagonal(self):
        spec = classic_skt(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        assert np.allclose(eval_A(spec, [0.0, 0.0]), np.diag([1.0, 2.0]))

    def test_quadratic_jacobian_matches_fd_oracle(self):
        # frozen from the central-difference oracle of eval_P at (1,1)
        spec = classic_skt(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        A = eval_A(spec, [1.0, 1.0])
        assert np.allclose(A, [[4.0, 1.0], [1.0, 5.0]], atol=1e-12)
        assert np.allclose(fd_jacobian(spec, [1.0, 1.0]), A, atol=1e-7)

    def test_fd_consistency_100_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            spec = random_poly_model(rng, m)
            u = rng.uniform(-2, 2, size=m)
            A = eval_A(spec, u)
            err = np.abs(A - fd_jacobian(spec, u)).max()
            assert err <= 1e-6 * (1.0 + np.abs(A).max())


def exact_monomial(c, radial, ex, u):
    """c * |u|^radial * prod u_i^e_i in rational arithmetic; an odd
    radial power takes |u| from a 60-digit decimal square root."""
    v = Fraction(c)
    for ui, e in zip(u, ex):
        v *= Fraction(ui) ** e
    if radial:
        r2 = sum(Fraction(x) ** 2 for x in u)
        v *= r2 ** (radial // 2)
        if radial % 2:
            with localcontext() as ctx:
                ctx.prec = 60
                v *= Fraction((Decimal(r2.numerator) / Decimal(r2.denominator)).sqrt())
    return v


def assert_matches_oracle(got, monomials):
    """|got - exact sum| <= 8 eps * (sum of |term|) over the monomials,
    each given as (c, radial, exps, u).  The seeded maps below reach
    at most 3.5 ulps."""
    terms = [exact_monomial(*t) for t in monomials]
    scale = sum(abs(t) for t in terms)
    assert abs(Fraction(float(got)) - sum(terms)) <= 8 * Fraction(np.finfo(float).eps) * scale


def assert_terms(got, terms, n):
    """got is the sum of the exact terms within gamma_n."""
    assert_within_gamma(got, sum(terms), sum(map(abs, terms)), n)


def random_terms(rng, m):
    """One to four terms with exponents 0..5; no constant term."""
    comp = []
    for _ in range(int(rng.integers(1, 5))):
        ex = tuple(int(e) for e in rng.integers(0, 6, m))
        comp.append((float(rng.normal()), ex if any(ex) else (1,) + ex[1:]))
    return comp


class TestExactOracle:
    """Values and Jacobians against exact rational arithmetic per point."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_polynomial_map(self, m, seed):
        rng = np.random.default_rng([m, seed])
        terms = [random_terms(rng, m) for _ in range(m)]
        P = PolynomialMap(m, terms)
        U = rng.uniform(-2.0, 2.0, size=(8, m))
        values, jacobians = P(U.T).T, P.jacobian(U.T).transpose(2, 0, 1)
        for u, value, jac in zip(U, values, jacobians):
            for i, comp in enumerate(terms):
                assert_matches_oracle(value[i], [(c, 0, ex, u) for c, ex in comp])
                for j in range(m):
                    assert_matches_oracle(jac[i, j], [
                        (c * ex[j], 0, ex[:j] + (ex[j] - 1,) + ex[j + 1:], u)
                        for c, ex in comp if ex[j]])

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_polynomial_with_radial_terms(self, m, seed):
        rng = np.random.default_rng([m, seed, 1])
        terms = [(int(rng.integers(0, m)), int(rng.integers(0, m)),
                  float(rng.normal()), int(rng.integers(0, 4)),
                  tuple(int(e) for e in rng.integers(0, 6, m))) for _ in range(6)]
        U = rng.uniform(-2.0, 2.0, size=(8, m))
        Ms = MatrixPolynomial(m, (m, m), terms)(U.T).transpose(2, 0, 1)
        for u, M in zip(U, Ms):
            for a, b in np.ndindex(m, m):
                assert_matches_oracle(M[a, b], [(c, s, ex, u)
                                                for i, j, c, s, ex in terms
                                                if (i, j) == (a, b)])


def shifted(ex, j, by):
    """The exponents ex with by added to that of u_j."""
    return tuple(e + by * (k == j) for k, e in enumerate(ex))


def random_matrix_terms(rng, m, shape):
    """Terms with radial powers 0..3 and exponents 0..5, plus one
    constant term."""
    terms = [(int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])),
              float(rng.normal()), int(rng.integers(0, 4)),
              tuple(int(e) for e in rng.integers(0, 6, m))) for _ in range(8)]
    return terms + [(0, 0, float(rng.normal()), 0.0, (0,) * m)]


SPATIAL_SHAPES = [(9,), (5, 7), (3, 4, 5)]
# Roundings per term of the evaluators below (m <= 3), an ulp-accurate
# power counted twice: 3 products and 3 powers; |u| (m/2 + 1) to a
# power s <= 3 and its product (3 (m/2 + 1) + 3); a factor u_j or g_k;
# and at most 20 terms summed: under 48.
EVAL_ROUNDINGS = 48


class TestShapedStateOracles:
    """The component-major evaluators on (m, *shape) states, point by
    point against exact rational arithmetic within gamma_48, and on the
    transposed view of a point-major batch."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", SPATIAL_SHAPES)
    def test_matrix_polynomial(self, m, shape):
        rng = np.random.default_rng([m, len(shape), 2])
        terms = random_matrix_terms(rng, m, (m, m + 1))
        u = rng.uniform(-2.0, 2.0, size=(m,) + shape)
        got = MatrixPolynomial(m, (m, m + 1), terms)(u)
        for p, up in zip(np.ndindex(shape), u.reshape(m, -1).T):
            for a, b in np.ndindex(m, m + 1):
                assert_terms(got[(a, b) + p], [
                    exact_monomial(c, s, ex, up)
                    for i, j, c, s, ex in terms if (i, j) == (a, b)],
                    EVAL_ROUNDINGS)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", SPATIAL_SHAPES)
    def test_polynomial_map_and_jacobian(self, m, shape):
        rng = np.random.default_rng([m, len(shape), 3])
        terms = [random_terms(rng, m) for _ in range(m)]
        P = PolynomialMap(m, terms)
        u = rng.uniform(-2.0, 2.0, size=(m,) + shape)
        values, jac = P(u), P.jacobian(u)
        for p, up in zip(np.ndindex(shape), u.reshape(m, -1).T):
            for i, comp in enumerate(terms):
                assert_terms(values[(i,) + p], [
                    exact_monomial(c, 0, ex, up) for c, ex in comp],
                    EVAL_ROUNDINGS)
                for j in range(m):
                    assert_terms(jac[(i, j) + p], [
                        exact_monomial(c * ex[j], 0, shifted(ex, j, -1), up)
                        for c, ex in comp if ex[j]], EVAL_ROUNDINGS)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", SPATIAL_SHAPES)
    def test_reaction_parts(self, m, shape):
        # f = K u - G(u) u + B(u) Du, with Du flattened to (du1/dx,
        # du1/dy, du2/dx, ...)
        rng = np.random.default_rng([m, len(shape), 4])
        G = random_matrix_terms(rng, m, (m, m))
        B = random_matrix_terms(rng, m, (m, 2 * m))
        K = rng.normal(size=(m, m))
        reaction = ReactionSpec(K=K, B=MatrixPolynomial(m, (m, 2 * m), B),
                                G=MatrixPolynomial(m, (m, m), G),
                                kappa=1.0, c0=1.0)
        u = rng.uniform(0.1, 2.0, size=(m,) + shape)
        g = rng.normal(size=(m, 2) + shape)
        f0, f = reaction.zero_order(u), reaction(u, g)
        for p, up, gp in zip(np.ndindex(shape), u.reshape(m, -1).T,
                             g.reshape(2 * m, -1).T):
            for a in range(m):
                zero = [exact_monomial(K[a, j], 0, shifted((0,) * m, j, 1), up)
                        for j in range(m)]
                zero += [exact_monomial(-c, s, shifted(ex, j, 1), up)
                         for i, j, c, s, ex in G if i == a]
                grad = [exact_monomial(Fraction(c) * Fraction(gp[k]), s, ex, up)
                        for i, k, c, s, ex in B if i == a]
                assert_terms(f0[(a,) + p], zero, EVAL_ROUNDINGS)
                assert_terms(f[(a,) + p], zero + grad, EVAL_ROUNDINGS)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_certification_draw_layout(self, m):
        # a point-major (n, m) batch, as Region.sample returns, is
        # evaluated on its transposed view, with the bits of a
        # contiguous copy
        rng = np.random.default_rng([m, 5])
        M = MatrixPolynomial(m, (m, m), random_matrix_terms(rng, m, (m, m)))
        P = PolynomialMap(m, [random_terms(rng, m) for _ in range(m)])
        reaction = ReactionSpec(K=rng.normal(size=(m, m)), B=None, G=None,
                                kappa=1.0, c0=1.0)
        U = rng.uniform(-2.0, 2.0, size=(50, m))
        for evaluate in (M, P, P.jacobian, reaction.zero_order):
            assert (evaluate(U.T).tobytes()
                    == evaluate(np.ascontiguousarray(U.T)).tobytes())


class TestLayoutErrors:
    """A state in the wrong layout fails loudly."""

    @pytest.mark.parametrize("evaluate", [
        lambda spec, u: eval_P(spec, u),
        lambda spec, u: eval_A(spec, u),
        lambda spec, u: reaction_zero_order(spec, u),
        lambda spec, u: eval_reaction(spec, u, np.zeros((2, 2, 3))),
        lambda spec, u: spec.reaction.G(u),
        lambda spec, u: eval_lambda(spec, u),
    ])
    def test_point_major_batch_rejected(self, skt_lv, evaluate):
        U = np.ones((3, 2))  # a stale (n, m) batch with n != m
        with pytest.raises(InputError,
                           match=r"component-major, shape \(2, \.\.\.\)"):
            evaluate(skt_lv, U)
        assert evaluate(skt_lv, U.T).shape[-1] == 3

    @pytest.mark.parametrize("spec_name", ["skt", "decay_model"])
    def test_no_reaction_or_general_reaction_checks_the_layout(self, spec_name,
                                                               request):
        spec = request.getfixturevalue(spec_name)
        U = np.ones((5, spec.m + 1))
        with pytest.raises(InputError, match="component-major"):
            eval_reaction(spec, U, np.zeros((spec.m, 2, spec.m + 1)))
        with pytest.raises(InputError, match="component-major"):
            reaction_zero_order(spec, U)

    def test_point_major_gradient_rejected(self):
        spec = ModelSpec(
            P=PolynomialMap.identity(2), lam=LambdaSpec(1.0),
            reaction=ReactionSpec(K=np.eye(2),
                                  B=MatrixPolynomial.constant(2, np.ones((2, 4))),
                                  G=None, kappa=1.0, c0=1.0))
        u = np.ones((2, 4))
        assert eval_reaction(spec, u, np.zeros((2, 2, 4))).shape == (2, 4)
        with pytest.raises(InputError,
                           match=r"gradient must have shape \(2, 2, \.\.\.\)"):
            eval_reaction(spec, u, np.zeros((4, 2, 2)))

    def test_lambda_checks_the_component_count(self, skt):
        # eval_lambda takes component-major states (m, ...) as eval_A does
        with pytest.raises(InputError,
                           match=r"component-major, shape \(2, \.\.\.\)"):
            eval_lambda(skt, np.ones((5, 2)))
        assert eval_lambda(skt, np.ones((2, 5))).shape == (5,)
        assert eval_lambda(skt, np.ones((2, 3, 3))).shape == (3, 3)

    def test_constant_envelope_takes_no_norm(self, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("norm taken for a constant envelope")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        got = LambdaSpec(1.5)(np.ones((2, 4, 3)))
        assert got.shape == (4, 3) and np.all(got == 1.5)


class TestEvalLambda:
    def test_constant_envelope(self, heat2):
        assert eval_lambda(heat2, [9.0, -4.0]) == 1.0

    def test_linear_growth(self):
        spec = ModelSpec(P=PolynomialMap.identity(1), lam=LambdaSpec(1.0, 2.0, 1.0))
        assert eval_lambda(spec, [3.0]) == pytest.approx(7.0)

    def test_quadratic_growth(self):
        spec = ModelSpec(P=PolynomialMap.identity(2), lam=LambdaSpec(0.5, 1.0, 2.0))
        assert eval_lambda(spec, [1.0, 1.0]) == pytest.approx(2.5)

    def test_lambda_s_accessor(self):
        assert LambdaSpec(1.5, 2.5, 1.0).lambda_S == 4.0

    def test_grad_norm_matches_fd(self):
        lam = LambdaSpec(1.0, 2.0, 3.0)
        u = np.array([0.6, -0.8])
        h = 1e-7
        d = u / np.linalg.norm(u)
        fd = (lam(u + h * d) - lam(u - h * d)) / (2 * h)
        assert lam.grad_norm(u) == pytest.approx(abs(fd), rel=1e-6)

    @pytest.mark.parametrize("k, want", [(0.5, np.inf), (1.0, 2.0), (3.5, 0.0)])
    def test_grad_norm_at_the_origin(self, k, want):
        # lambda1 * k * r^(k-1) at r = 0 with lambda1 = 2: inf for k < 1,
        # lambda1 * k = 2 for k = 1, 0 for k > 1
        got = LambdaSpec(1.0, 2.0, k).grad_norm(np.zeros((2, 3)))
        assert np.array_equal(got, np.full(3, want))

    def test_invalid_parameters(self):
        with pytest.raises(InputError, match="lambda0 must be"):
            LambdaSpec(0.0)
        with pytest.raises(InputError, match="lambda1 must be"):
            LambdaSpec(1.0, -1.0)
        with pytest.raises(InputError, match="k must be"):
            LambdaSpec(1.0, 1.0, -2.0)


class TestEvalReaction:
    def test_pure_linear_term(self):
        spec = ModelSpec(
            P=PolynomialMap.identity(2), lam=LambdaSpec(1.0),
            reaction=ReactionSpec(K=np.eye(2), B=None, G=None, kappa=1.0, c0=1.0))
        g = np.random.default_rng(0).normal(size=(2, 2))
        assert np.allclose(eval_reaction(spec, [2.0, 3.0], g), [2.0, 3.0])

    def test_radial_competition(self):
        # G(u) = |u| Id and |(3,4)| = 5
        spec = ModelSpec(
            P=PolynomialMap.identity(2), lam=LambdaSpec(1.0, 0.0, 1.0),
            reaction=ReactionSpec(K=np.zeros((2, 2)), B=None,
                                  G=MatrixPolynomial.radial_identity(2),
                                  kappa=1.0, c0=1.0))
        out = eval_reaction(spec, [3.0, 4.0], np.zeros((2, 2)))
        assert np.allclose(out, [-15.0, -20.0])

    def test_zero_state_leaves_gradient_part(self):
        B0 = np.arange(8, dtype=float).reshape(2, 4)
        spec = ModelSpec(
            P=PolynomialMap.identity(2), lam=LambdaSpec(1.0),
            reaction=ReactionSpec(K=np.eye(2), B=MatrixPolynomial.constant(2, B0),
                                  G=None, kappa=1.0, c0=1.0))
        g = np.array([[1.0, 2.0], [3.0, 4.0]])    # rows (du_c/dx, du_c/dy)
        expect = B0 @ g.reshape(4)
        assert np.allclose(eval_reaction(spec, [0.0, 0.0], g), expect)

    def test_lotka_volterra_by_hand(self, skt_lv):
        # f_i = u_i (r_i - s_i1 u - s_i2 v) at u = (2, 1)
        out = reaction_zero_order(skt_lv, [2.0, 1.0])
        assert np.allclose(out, [-3.0, -1.0])

    def test_no_reaction_is_zero(self, skt):
        assert np.all(eval_reaction(skt, [1.0, 2.0], np.ones((2, 2))) == 0.0)


class TestConstructionErrors:
    def test_constant_term_rejected(self):
        with pytest.raises(InputError, match="constant term"):
            PolynomialMap(1, [[(1.0, (0,))]])

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError, match="nonnegative integers"):
            PolynomialMap(1, [[(1.0, (-1,))]])

    def test_exponent_length_rejected(self):
        with pytest.raises(InputError, match="must have length 2"):
            PolynomialMap(2, [[(1.0, (1,))], []])

    def test_max_degree_enforced(self):
        with pytest.raises(InputError, match="max degree"):
            PolynomialMap(1, [[(1.0, (3,))]], max_degree=2)

    @pytest.mark.parametrize("coef", [math.inf, -math.inf, math.nan])
    def test_nonfinite_coefficient_rejected(self, coef):
        with pytest.raises(InputError, match="coefficient must be finite"):
            PolynomialMap(1, [[(coef, (3,)), (1.0, (1,))]])
        with pytest.raises(InputError, match="coefficient must be finite"):
            MatrixPolynomial(2, (2, 2), [(0, 1, coef, 0.0, (1, 0))])

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_nonfinite_radial_power_rejected(self, power):
        with pytest.raises(InputError, match="radial power"):
            MatrixPolynomial.radial_identity(2, power=power)

    @pytest.mark.parametrize("ex", [(2.7,), (math.inf,), (math.nan,), (True,)])
    def test_non_integer_exponent_rejected(self, ex):
        with pytest.raises(InputError, match="exponent must be a whole number"):
            PolynomialMap(1, [[(2.0, ex)]])
        with pytest.raises(InputError, match="exponent must be a whole number"):
            MatrixPolynomial(1, (1, 1), [(0, 0, 1.0, 0.0, ex)])

    @pytest.mark.parametrize("i, j", [(0.5, 1), (0, 1.7), (True, 0), (0, False)])
    def test_non_integer_matrix_index_rejected(self, i, j):
        with pytest.raises(InputError, match="matrix index must be a whole number"):
            MatrixPolynomial(2, (2, 2), [(i, j, 1.0, 0, (1, 0))])

    def test_whole_number_float_index_accepted(self):
        M = MatrixPolynomial(2, (2, 2), [(1.0, 0.0, 3.0, 0.0, (1, 0))])
        assert M.to_dict() == [[1, 0, 3.0, 0.0, 1, 0]]

    @pytest.mark.parametrize("m", [2.5, True, math.inf])
    def test_non_whole_component_count_rejected(self, m):
        with pytest.raises(InputError, match="whole number"):
            model_from_dict({"m": m, "P": [[[1.0, 1, 0]], [[1.0, 0, 1]]],
                             "lambda": {"lambda0": 1.0}})

    def test_whole_number_float_component_count_accepted(self):
        spec = model_from_dict({"m": 2.0, "P": [[[1.0, 1, 0]], [[1.0, 0, 1]]],
                                "lambda": {"lambda0": 1.0}})
        assert spec.m == 2 and model_to_dict(spec)["m"] == 2

    def test_whole_number_float_exponent_accepted(self):
        P = PolynomialMap(1, [[(2.0, (2.0,))]])
        assert P.to_dict() == [[[2.0, 2]]]
        assert P([3.0])[0] == 18.0

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_nonfinite_k_entry_rejected(self, entry):
        with pytest.raises(InputError, match="finite"):
            ReactionSpec(K=[[1.0, entry], [0.0, 1.0]], B=None, G=None,
                         kappa=1.0, c0=1.0)

    @pytest.mark.parametrize("lambda1, k", [(math.inf, 1.0), (math.nan, 1.0),
                                            (1.0, math.inf), (1.0, math.nan)])
    def test_nonfinite_envelope_rejected(self, lambda1, k):
        with pytest.raises(InputError, match="finite"):
            LambdaSpec(1.0, lambda1, k)

    @pytest.mark.parametrize("kappa, c0, C_f", [(math.inf, 1.0, None),
                                                (1.0, math.inf, None),
                                                (1.0, 1.0, math.inf)])
    def test_infinite_reaction_constant_rejected(self, kappa, c0, C_f):
        with pytest.raises(InputError, match="finite"):
            ModelSpec(P=PolynomialMap.identity(1), lam=LambdaSpec(1.0), C_f=C_f,
                      reaction=ReactionSpec(K=np.eye(1), B=None, G=None,
                                            kappa=kappa, c0=c0))

    @pytest.mark.parametrize("section, rows", [
        ("B", [[0, 1, math.inf, 0.0, 1]]),
        ("G", [[0, 0, math.nan, 0.0, 1]]),
        ("f", [[[math.inf, 1]]]),
    ])
    def test_nonfinite_reaction_term_rejected(self, section, rows):
        reaction = ({"general": {section: rows}} if section == "f" else
                    {"K": [[1.0]], section: rows, "kappa": 1.0, "c0": 1.0})
        with pytest.raises(InputError, match=f"{section}: .*must be finite"):
            model_from_dict({"m": 1, "P": [[[1.0, 1]]],
                             "lambda": {"lambda0": 1.0}, "reaction": reaction})

    def test_nonsquare_k_rejected(self):
        with pytest.raises(InputError, match="square matrix"):
            ReactionSpec(K=np.ones((2, 3)), B=None, G=None, kappa=1.0, c0=1.0)

    def test_kappa_exceeding_k_rejected(self):
        with pytest.raises(InputError, match="kappa must not exceed"):
            ModelSpec(P=PolynomialMap.identity(1), lam=LambdaSpec(1.0, 1.0, 1.0),
                      reaction=ReactionSpec(K=np.eye(1), B=None,
                                            G=MatrixPolynomial.radial_identity(1),
                                            kappa=2.0, c0=1.0))

    def test_reaction_dimension_mismatch(self):
        with pytest.raises(InputError, match="reaction dimension"):
            ModelSpec(P=PolynomialMap.identity(2), lam=LambdaSpec(1.0),
                      reaction=ReactionSpec(K=np.eye(1), B=None, G=None,
                                            kappa=1.0, c0=1.0))

    def test_nonpositive_diffusion_rate_rejected(self):
        with pytest.raises(InputError, match="a1 must be"):
            classic_skt(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_nonpositive_competition_rejected(self):
        with pytest.raises(InputError, match="competitive rates"):
            classic_skt(1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                        lv=(1.0, 1.0, 1.0, 0.0, 1.0, 1.0))


class TestRegion:
    def test_samples_stay_in_box(self):
        reg = Region((-1.0, 2.0), (0.5, 4.0))
        pts = reg.sample(400, 9)
        assert pts.shape == (400, 2)
        assert np.all(pts >= [-1.0, 2.0]) and np.all(pts <= [0.5, 4.0])

    # the last pair's larger draw has Halton indices with two base-2
    # digits more than the smaller draw's
    @pytest.mark.parametrize("small,large", [(500, 1000), (500, 501), (1, 2),
                                             (2**14, 2**15 + 1)])
    def test_prefix_stability(self, small, large):
        for m in (1, 2, 3):
            reg = Region.symmetric(3.0, m)
            assert np.array_equal(reg.sample(small, 7), reg.sample(large, 7)[:small])

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            Region((0.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize("lo,hi", [
        ((0.0, 0.0), (math.inf, 10.0)), ((-math.inf, 0.0), (1.0, 1.0)),
        ((0.0, math.nan), (1.0, 1.0)), ((0.0,), (math.nan,))])
    def test_non_finite_bound_rejected(self, lo, hi):
        # an infinite box constructed and then certified an all-NaN report
        with pytest.raises(InputError, match="finite"):
            Region(lo, hi)

    @pytest.mark.parametrize("n", [2.5, True, float("nan"), 0])
    def test_sample_count_must_be_a_positive_whole_number(self, n):
        with pytest.raises(InputError):
            Region.symmetric(1.0, 2).sample(n, 0)

    def test_whole_number_float_sample_count(self):
        reg = Region.symmetric(1.0, 2)
        assert np.array_equal(reg.sample(8.0, 3), reg.sample(8, 3))

    @pytest.mark.parametrize("seed", [2.9, True, float("nan")])
    def test_seed_must_be_a_whole_number(self, seed):
        # int() would truncate 2.9 and draw the points of seed 2
        with pytest.raises(InputError, match="whole number"):
            Region.symmetric(1.0, 2).sample(10, seed)

    def test_whole_number_float_seed(self):
        reg = Region.symmetric(1.0, 2)
        assert np.array_equal(reg.sample(10, 2.0), reg.sample(10, 2))

    def test_round_trip(self):
        reg = Region.positive(5.0, 3)
        assert Region.from_dict(reg.to_dict()) == reg


class TestVerifyStructure:
    def test_identity_model_all_pass(self, heat2):
        rep = verify_structure(heat2, Region.symmetric(10.0, 2), n=2000, seed=0)
        assert rep.passed
        assert rep.lambda_ratio_min == pytest.approx(1.0, abs=1e-12)
        assert rep.lambda_ratio_max == pytest.approx(1.0, abs=1e-12)
        assert rep.C_star_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.Lambda_hat == 0.0
        # the quotient |x|^2 + l (uhat . x)^2 over unit x: lambda_0 = 1,
        # and 1 <= lambda_1 <= lambda_2 come near 1, on this sample and
        # on a tenth as many points over [-2, 2]^2
        eps = np.finfo(float).eps
        small = verify_structure(heat2, Region.symmetric(2.0, 2), n=200, seed=1)
        for lam_l in (rep.lambda_l, small.lambda_l):
            assert abs(lam_l[0.0] - 1.0) <= 4 * eps
            assert 1.0 - 8 * eps <= lam_l[1.0] <= lam_l[2.0] <= 1.001

    def test_constant_diagonal_by_inspection(self):
        rep = verify_structure(diag_model(1.0, 2.0), Region.symmetric(10.0, 2),
                               n=1000, seed=0)
        assert rep.lambda_ratio_min == pytest.approx(1.0, abs=1e-12)
        assert rep.C_star_hat == pytest.approx(2.0, abs=1e-12)
        assert rep.passed

    def test_classic_skt_positive_orthant(self, skt):
        rep = verify_structure(skt, Region.positive(100.0, 2), n=2000, seed=0)
        assert rep.passed
        assert rep.lambda_ratio_min >= 1.0 - rep.tol_ell
        # envelope comparable to 1 + u + v on the sampled box
        U = Region.positive(100.0, 2).sample(2000, 0)
        comp = eval_lambda(skt, U.T) / (1.0 + U.sum(axis=-1))
        assert 0.2 <= comp.min() and comp.max() <= 5.0

    def test_ellipticity_failure_is_reported_not_raised(self):
        bad = ModelSpec(P=PolynomialMap(1, [[(-1.0, (1,))]]), lam=LambdaSpec(1.0))
        rep = verify_structure(bad, Region.symmetric(1.0, 1), n=200, seed=0)
        assert not rep.ellipticity_pass and not rep.passed

    def test_cf_declaration_checked(self, logistic):
        # |f(u)| = |u| |1 - |u|| exceeds C_f |u| lambda(u)/lambda_S for
        # small C_f on a box reaching |u| = 4
        tight = ModelSpec(P=logistic.P, lam=logistic.lam,
                          reaction=logistic.reaction, C_f=1.0)
        rep = verify_structure(tight, Region.symmetric(4.0, 1), n=2000, seed=0)
        assert not rep.f_pass
        loose = ModelSpec(P=logistic.P, lam=logistic.lam,
                          reaction=logistic.reaction, C_f=3.5)
        rep2 = verify_structure(loose, Region.symmetric(4.0, 1), n=2000, seed=0)
        assert rep2.f_pass

    def test_sg_prime_gate(self):
        # k = 4 with C_* ~ 5: (k-2)/k = 0.5 > delta/C_*
        stiff = ModelSpec(P=PolynomialMap(1, [[(1.0, (1,)), (1.0, (5,))]]),
                          lam=LambdaSpec(1.0, 1.0, 4.0))
        rep = verify_structure(stiff, Region.symmetric(10.0, 1), n=2000, seed=0)
        assert rep.ellipticity_pass
        assert not rep.sg_prime_pass and not rep.passed

    def test_eps0_reporting(self):
        spec = ModelSpec(P=PolynomialMap(1, [[(1.0, (1,)), (1.0, (3,))]]),
                         lam=LambdaSpec(1.0, 3.0, 2.0))
        rep = verify_structure(spec, Region.symmetric(5.0, 1), n=500, seed=0)
        assert rep.eps0_hat == pytest.approx(0.5)

    def test_region_dimension_checked(self, skt):
        with pytest.raises(InputError):
            verify_structure(skt, Region.symmetric(1.0, 3), n=10, seed=0)

    @pytest.mark.parametrize("m", [1, 3])
    def test_both_entry_points_check_the_region_dimension(self, skt, m):
        # compute_lambda_l used to fail in the envelope's layout check
        # with an error about the state's layout
        region = Region.positive(1.0, m)
        with pytest.raises(InputError, match="region dimension"):
            verify_structure(skt, region, n=100, seed=0)
        with pytest.raises(InputError, match="region dimension"):
            compute_lambda_l(skt, 1.0, n=100, region=region)

    @pytest.mark.parametrize("kwargs,match", [
        ({"ls": (0.0, math.nan)}, "l must be finite"),
        ({"ls": (math.inf,)}, "l must be finite"),
        ({"ls": (-1.0,)}, "nonnegative"),
        ({"delta_k": math.nan}, "delta_k"),
        ({"delta_k": math.inf}, "delta_k"),
        ({"delta_k": 0.0}, "delta_k"),
        ({"tol_ell": math.nan}, "tol_ell"),
        ({"tol_ell": math.inf}, "tol_ell"),
        ({"tol_ell": -1e-9}, "tol_ell"),
        # float("abc") raised a bare ValueError; True read as 1.0 and the
        # string "12" as the powers 1 and 2
        ({"delta_k": "abc"}, "delta_k"),
        ({"tol_ell": True}, "tol_ell"),
        ({"ls": "12"}, "ls")])
    def test_bad_parameters_rejected_before_the_draw(self, skt, kwargs, match,
                                                     monkeypatch):
        # ls=(nan,) reported lambda_l {nan: ...}; tol_ell = NaN failed
        # ellipticity and wrote NaN into verify.json
        def no_draw(*args):
            raise AssertionError("drew the sample")

        monkeypatch.setattr(model_mod, "_certification_draw", no_draw)
        with pytest.raises(InputError, match=match):
            verify_structure(skt, Region.positive(10.0, 2), n=100, seed=0,
                             **kwargs)

    def test_determinism(self, skt):
        a = verify_structure(skt, Region.positive(50.0, 2), n=500, seed=3)
        b = verify_structure(skt, Region.positive(50.0, 2), n=500, seed=3)
        assert _jsonable(a) == _jsonable(b)

    def test_sample_drawn_and_evaluated_once(self, skt, monkeypatch):
        # three slices, the last of 3 rows: A is evaluated slice by slice
        # and covers every state of the one draw exactly once
        n = 2 * model_mod._SLICE + 3
        region = Region.positive(50.0, 2)
        counts = {"sample": 0, "compute_lambda_l": 0}
        evaluated = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recorded_eval_A(spec, u):
            evaluated.append(np.array(u).T)
            return eval_A(spec, u)

        monkeypatch.setattr(Region, "sample", counted("sample", Region.sample))
        monkeypatch.setattr(model_mod, "compute_lambda_l",
                            counted("compute_lambda_l", compute_lambda_l))
        monkeypatch.setattr(model_mod, "eval_A", recorded_eval_A)
        verify_structure(skt, region, n=n, seed=3, ls=(0, 1, 2))
        assert counts == {"sample": 1, "compute_lambda_l": 3}
        assert [len(u) for u in evaluated] == [model_mod._SLICE] * 2 + [3]
        assert np.array_equal(np.concatenate(evaluated), region.sample(n, 3))

    @pytest.mark.parametrize("region", [Region.positive(100.0, 2),
                                        Region.symmetric(3.0, 2)])
    def test_lambda_l_are_the_standalone_values(self, skt, region):
        rep = verify_structure(skt, region, n=3000, seed=7, delta_k=0.9,
                               ls=(0, 1, 2))
        for l in (0.0, 1.0, 2.0):
            want = compute_lambda_l(skt, l, 3000, 7, region, 0.9)
            assert np.float64(rep.lambda_l[l]).view(np.uint64) == \
                np.float64(want).view(np.uint64)

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_sample_rejected(self, skt, n):
        with pytest.raises(InputError, match="sample count"):
            verify_structure(skt, Region.positive(1.0, 2), n=n)
        with pytest.raises(InputError, match="sample count"):
            compute_lambda_l(skt, 1.0, n=n)

    def test_certificate_soundness(self, skt):
        # every sample obeys <A z, z> >= ratio_min * lambda |z|^2 and the
        # norm sandwich lambda^2|z|^2 <= |A z|^2 <= C*^2 lambda^2 |z|^2
        region = Region.positive(20.0, 2)
        rep = verify_structure(skt, region, n=300, seed=5)
        assert rep.passed
        U = region.sample(300, 5)
        A = eval_A(skt, U.T).transpose(2, 0, 1)
        lam = eval_lambda(skt, U.T)
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.normal(size=2)
            quad = np.einsum("i,nij,j->n", z, A, z)
            assert np.all(quad >= rep.lambda_ratio_min * lam * (z @ z) * (1 - 1e-12))
            Az2 = (np.einsum("nij,j->ni", A, z) ** 2).sum(axis=-1)
            assert np.all(Az2 >= lam ** 2 * (z @ z) * (1 - 1e-9))
            assert np.all(Az2 <= rep.C_star_hat ** 2 * lam ** 2 * (z @ z) * (1 + 1e-9))


def float_bits(x):
    """x with every float replaced by its IEEE bits, so == compares bit
    for bit (NaN included)."""
    if isinstance(x, dict):
        return {k: float_bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [float_bits(v) for v in x]
    if isinstance(x, float):
        return int(np.float64(x).view(np.uint64))
    return x


def three_component_model():
    """m = 3 with cross terms, a cubic and a radial envelope."""
    return ModelSpec(
        P=PolynomialMap(3, [
            [(1.0, (1, 0, 0)), (0.3, (2, 0, 0)), (0.2, (1, 1, 0))],
            [(1.0, (0, 1, 0)), (0.1, (1, 1, 0)), (0.4, (0, 2, 1))],
            [(1.0, (0, 0, 1)), (0.2, (0, 1, 1)), (0.5, (0, 0, 3))]]),
        lam=LambdaSpec(1.0, 0.1, 2.0))


def sample_last(sample):
    """A point-major (U, lam, A, d, q) tuple, one sample per row, in the
    layout of _certification_draw: the sample axis last."""
    U, lam, A, d, q = sample
    return U.T, lam, A.transpose(1, 2, 0), d.T, q.transpose(1, 2, 0)


SLICE_CASES = [("skt_lv", Region.positive(100.0, 2)),
               ("skt_lv", Region.symmetric(3.0, 2)),
               ("m3", Region.symmetric(2.0, 3))]


class TestCertificationSlices:
    """The certification does its per-sample work in slices of _SLICE
    rows; every result is the same bits whatever the slice size."""

    SLICE = 7
    N = 3 * SLICE + 5

    def certify(self, spec, region, seed, monkeypatch, slice_rows):
        monkeypatch.setattr(model_mod, "_SLICE", slice_rows)
        n = self.N
        rep = verify_structure(spec, region, n=n, seed=seed, delta_k=0.9)
        alone = [compute_lambda_l(spec, l, n, seed, region, 0.9)
                 for l in (0.0, 1.0, 2.0)]
        draw = model_mod._certification_draw(spec, region, n, seed)
        return (float_bits(_jsonable(rep)), float_bits(alone),
                region.sample(n, seed), draw)

    @pytest.mark.parametrize("name,region", SLICE_CASES)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_results_do_not_depend_on_the_slice_size(self, name, region, seed,
                                                     skt_lv, monkeypatch):
        spec = skt_lv if name == "skt_lv" else three_component_model()
        sliced = self.certify(spec, region, seed, monkeypatch, self.SLICE)
        whole = self.certify(spec, region, seed, monkeypatch, self.N + 1)
        assert sliced[0] == whole[0]
        assert sliced[1] == whole[1]
        assert sliced[0]["lambda_l"] == dict(zip(
            ("0.0", "1.0", "2.0"), whole[1]))
        assert sliced[2].tobytes() == whole[2].tobytes()
        assert [a.tobytes() for a in sliced[3]] == [a.tobytes() for a in whole[3]]

    def test_sample_scaled_in_place_keeps_the_bits(self):
        region = Region((-1.5, 2.0), (0.25, 7.0))
        pts = region.sample(101, 4)
        unit = Region((0.0, 0.0), (1.0, 1.0)).sample(101, 4)
        lo, hi = np.array(region.lo), np.array(region.hi)
        assert pts.tobytes() == (lo + unit * (hi - lo)).tobytes()

    @staticmethod
    def hand_made_sample(n, rng, off_origin):
        """A point-major (U, lam, A, d, q) tuple, one sample per row,
        with U = 0 except on the rows in off_origin."""
        U = np.zeros((n, 2))
        U[off_origin] = rng.uniform(0.5, 2.0, (len(off_origin), 2))
        lam = rng.uniform(1.0, 2.0, n)
        A = rng.uniform(-0.2, 0.2, (n, 2, 2)) + 3.0 * np.eye(2)
        d = rng.standard_normal((n, 2))
        q = rng.standard_normal((n, 2, 2))
        return U, lam, A, d, q

    def test_origin_rejected_only_when_the_whole_draw_is_there(
            self, heat2, monkeypatch):
        monkeypatch.setattr(model_mod, "_SLICE", self.SLICE)
        rng = np.random.default_rng(0)
        # the first three slices lie at the origin, the last holds one
        # state off it
        sample = self.hand_made_sample(self.N, rng, [self.N - 2])
        U, lam, A, d, q = sample
        got = compute_lambda_l(heat2, 1.0, _sample=sample_last(sample))
        keep = [self.N - 2]
        monkeypatch.setattr(model_mod, "_SLICE", self.N)
        want = compute_lambda_l(heat2, 1.0, _sample=sample_last((
            U[keep], lam[keep], A[keep], d[keep], q[keep])))
        assert float_bits(got) == float_bits(want)
        # l = 0 does not divide by |u|, so the origin is a valid sample
        assert math.isfinite(compute_lambda_l(heat2, 0.0,
                                              _sample=sample_last(sample)))
        monkeypatch.setattr(model_mod, "_SLICE", self.SLICE)
        origin = self.hand_made_sample(self.N, rng, [])
        with pytest.raises(InputError, match="all samples at the origin"):
            compute_lambda_l(heat2, 1.0, _sample=sample_last(origin))

    def test_spectral_gap_logged_once_with_c_star_over_all_kept(
            self, heat2, monkeypatch, caplog):
        monkeypatch.setattr(model_mod, "_SLICE", self.SLICE)
        rng = np.random.default_rng(1)
        off = [i for i in range(self.N) if i % 4]
        U, lam, A, d, q = self.hand_made_sample(self.N, rng, off)
        # the largest ||A||/lambda of the kept states is in the second
        # of four slices; a larger one at the origin (row 0) is dropped
        lam[:] = 1.0
        A[self.SLICE + 2] = [[50.0, 0.0], [0.0, 3.0]]
        A[0] = [[900.0, 0.0], [0.0, 3.0]]
        C_star = float(np.max(_opnorms(A[off].transpose(1, 2, 0)) / lam[off]))
        assert C_star == 50.0
        with caplog.at_level("INFO", logger="crossdiff.model"):
            compute_lambda_l(heat2, 2.0, delta=0.99,
                             _sample=sample_last((U, lam, A, d, q)))
        gates = [r for r in caplog.records if "spectral-gap" in r.getMessage()]
        assert len(gates) == 1
        assert f"C_*~{C_star:.3g}" in gates[0].getMessage()

    def test_c_star_computed_only_for_the_info_log(self, heat2, monkeypatch,
                                                   caplog):
        # C_* feeds nothing but the spectral-gap log, so with INFO off no
        # ||A|| is taken; the value is the same either way
        monkeypatch.setattr(model_mod, "_SLICE", self.SLICE)
        calls = []

        def counted_opnorms(A):
            calls.append(A.shape[-1])
            return _opnorms(A)

        monkeypatch.setattr(model_mod, "_opnorms", counted_opnorms)
        rng = np.random.default_rng(2)
        off = [i for i in range(self.N) if i >= self.SLICE]
        sample = sample_last(self.hand_made_sample(self.N, rng, off))
        caplog.set_level("WARNING", logger="crossdiff.model")
        quiet = compute_lambda_l(heat2, 2.0, _sample=sample)
        assert calls == []
        caplog.set_level("INFO", logger="crossdiff.model")
        logged = compute_lambda_l(heat2, 2.0, _sample=sample)
        assert calls == [self.SLICE, self.SLICE, self.SLICE - 2]
        assert float_bits(logged) == float_bits(quiet)


def random_sample(rng, m, n, origin):
    """A (U, lam, A, d, q) tuple in the layout of _certification_draw
    over magnitudes from 1e-3 to 1e3, with about a fraction origin of the
    states at the origin."""
    U = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    U[rng.random(n) < origin] = 0.0
    lam = rng.uniform(0.5, 2.0, n)
    A = rng.standard_normal((n, m, m)) * 10.0 ** rng.uniform(-2, 2, (n, 1, 1))
    d = rng.standard_normal((n, m))
    q = rng.standard_normal((n, m, 2))
    return sample_last((U, lam, A, d, q))


def certified_rows(sample, l):
    """The samples compute_lambda_l tests (those off the origin when
    l > 0) as (lam, A, d, q, uhat), and their _quotients."""
    U, lam, A, d, q = sample
    uhat = None
    if l > 0:
        un = np.linalg.norm(U, axis=0)
        keep = un > 0
        U, un, lam, A, d, q = (x[..., keep] for x in (U, un, lam, A, d, q))
        uhat = U / un
    return (lam, A, d, q, uhat), model_mod._quotients(A, d, q, l, uhat)


def exact_form(A, xs, uhat, l):
    """The sum over the columns x of xs of <A x, x> + l <A x, uhat><x,
    uhat> for one sample, in rational arithmetic."""
    A, xs, uhat = exact(A), exact(xs), exact(uhat)
    Ax = A @ xs
    return (Ax * xs).sum() + Fraction(l) * ((uhat @ Ax) * (uhat @ xs)).sum()


def check_quotient_rows(A, d, q, uhat, l, v1, v2):
    """Each row of (v1, v2) within gamma_{3m+4} of exact_form, with the
    form of the magnitudes as the scale.  An expanded term carries at
    most 3m + 4 roundings: m in A x, m in each of the three dot
    products, two in l <A x, uhat> <x, uhat>, one adding that to
    <A x, x> and one adding the two columns of q."""
    uhat = np.zeros(d.shape) if uhat is None else uhat
    for k in range(d.shape[1]):
        for got, xs in ((v1[k], d[:, None, k]), (v2[k], q[..., k])):
            args = A[..., k], xs, uhat[:, k]
            assert_within_gamma(got, exact_form(*args, l), exact_form(
                *map(np.abs, args), l), 3 * len(d) + 4)


LS = [0.0, 0.5, 1.0, 2.0, 3.0]


class TestQuotientsAgainstExactOracle:
    """_quotients, row by row, against its form in exact rational
    arithmetic (check_quotient_rows), and compute_lambda_l as the least
    row quotient over lambda."""

    @given(m=st.sampled_from([1, 2, 3]), n=st.integers(1, 40),
           l=st.sampled_from(LS), origin=st.sampled_from([0.0, 0.2, 0.8]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_and_infimum_match_the_exact_oracle(self, heat2, m, n, l,
                                                     origin, seed):
        sample = random_sample(np.random.default_rng(seed), m, n, origin)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_mod, "_SLICE", 7)
            if l > 0 and not np.any(sample[0]):
                with pytest.raises(InputError, match="origin"):
                    compute_lambda_l(heat2, l, _sample=sample)
                return
            value = compute_lambda_l(heat2, l, _sample=sample)
        (lam, A, d, q, uhat), (v1, v2) = certified_rows(sample, l)
        check_quotient_rows(A, d, q, uhat, l, v1, v2)
        assert float_bits(value) == float_bits(
            float(min((v1 / lam).min(), (v2 / lam).min())))

    @pytest.mark.parametrize("name,region", SLICE_CASES)
    @pytest.mark.parametrize("l", LS)
    def test_draws_match_the_oracle(self, skt_lv, name, region, l):
        spec = skt_lv if name == "skt_lv" else three_component_model()
        draw = model_mod._certification_draw(spec, region, 300, 11)
        (_, *rows), (v1, v2) = certified_rows(draw, l)
        check_quotient_rows(*rows, l, v1, v2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("l", [0.0, 1.0])
    def test_a_row_sums_alike_in_any_batch(self, m, l):
        # each row is summed on its own, so a one-row slice gives the
        # bits the row has in any larger slice
        sample = random_sample(np.random.default_rng(m), m, 30, 0.0)
        _, whole = certified_rows(sample, l)
        for k in range(30):
            _, alone = certified_rows([x[..., k:k + 1] for x in sample], l)
            assert [v.tobytes() for v in alone] == [v[k:k + 1].tobytes()
                                                    for v in whole]


def test_verify_memory_stays_bounded(tmp_path):
    # n = 1e6 held whole is about 104 MB at m = 2; before the checks ran
    # in slices the peak above the imports was about 290 MB
    code = """
import resource, sys
import crossdiff.cli
from crossdiff import Region, classic_skt, verify_structure
spec = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
region = Region.positive(100.0, 2)
verify_structure(spec, region, n=10, seed=1)  # warm-up: first-call allocations stay out of base
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rep = verify_structure(spec, region, n=1_000_000, seed=1)
assert rep.sample_count == 1_000_000
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)
"""
    out = run_python(code, timeout=300, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    above_mb = float(out.stdout.split()[-1])
    assert above_mb < 200.0


# (a11, a12, a21, a22) of every classic_skt in the tests and the
# benchmark, then 50 seeded random sets
SKT_COEFFICIENTS = ([(1.0, 0.5, 0.5, 1.0), (1.0, 1.0, 1.0, 1.0),
                     (0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0),
                     (2.0, 1.0, 1.0, 2.0)]
                    + [tuple(np.random.default_rng([0xB7, k]).uniform(0.0, 3.0, 4))
                       for k in range(50)])


def axis_matrices(a11, a12, a21, a22):
    """S1 and S2, the symmetric linear part of A along u = e1 and u = e2,
    as rational (p, q, r) of [[p, q], [q, r]]."""
    a11, a12, a21, a22 = (Fraction(a) for a in (a11, a12, a21, a22))
    return [(2 * a11, a12 / 2, a21), (a12, a21 / 2, 2 * a22)]


def semidefinite(p, q, r, shift, strict=False):
    """Whether [[p, q], [q, r]] - shift I is positive semidefinite, or
    positive definite when strict, in exact arithmetic."""
    p, r = p - shift, r - shift
    if strict:
        return p > 0 and p * r - q * q > 0
    return p >= 0 and r >= 0 and p * r - q * q >= 0


def searched_lambda1(a11, a12, a21, a22):
    """The slope as a search over the quarter circle finds it: the least
    of 2049 grid angles, then scipy's bounded Brent search on the
    bracket around it."""
    from scipy.optimize import minimize_scalar

    def slope(theta):
        c, s = math.cos(theta), math.sin(theta)
        m11 = 2.0 * a11 * c + a12 * s
        m12 = a12 * c
        m21 = a21 * s
        m22 = a21 * c + 2.0 * a22 * s
        mean = 0.5 * (m11 + m22)
        return mean - math.hypot(0.5 * (m11 - m22), 0.5 * (m12 + m21))

    thetas = np.linspace(0.0, 0.5 * math.pi, 2049)
    vals = np.array([slope(t) for t in thetas])
    i = int(np.argmin(vals))
    lo, hi = max(i - 1, 0), min(i + 1, len(thetas) - 1)
    found = minimize_scalar(slope, bounds=(float(thetas[lo]), float(thetas[hi])),
                            method="bounded", options={"xatol": 1e-12}).fun
    return max(min(vals[i], found), 0.0) * (1.0 - 1e-7)


class TestBoundedBrent:
    """The closed-form slope against the search it replaced, a 2049-point
    grid refined by scipy's bounded Brent search: within 2e-13 relative,
    and bit for bit on every coefficient set a classic_skt of the tests
    or the benchmark uses."""

    @pytest.mark.parametrize("coefs", SKT_COEFFICIENTS)
    def test_skt_slope_search_matches_scipy(self, coefs):
        got = model_mod._skt_lambda1(*coefs)
        want = searched_lambda1(*coefs)
        assert abs(got - want) <= 2e-13 * abs(want)
        if coefs in SKT_COEFFICIENTS[:5]:
            assert float_bits(got) == float_bits(want)


class TestSktSlope:
    """_skt_lambda1 is the least eigenvalue of S1 and S2 (clipped at 0,
    less the 1e-7 margin) in exact rational arithmetic, and no direction
    of the quarter circle has a smaller one."""

    # The axis entries are exact.  The mean, the half difference and the
    # subtraction round once each and hypot counts as two (ulp-accurate),
    # all relative to |mean| + hypot <= |p| + |q| + |r|; the margin
    # multiply adds one more: 6 roundings, taken as 8.
    ROUNDINGS = 8

    @pytest.mark.parametrize("coefs", SKT_COEFFICIENTS)
    def test_axis_eigenvalues_bound_it_exactly(self, coefs):
        lam1 = Fraction(model_mod._skt_lambda1(*coefs))
        axes = axis_matrices(*coefs)
        if lam1 > 0:  # a lower bound of S1 and S2, so of every S(d)
            assert all(semidefinite(*S, lam1) for S in axes)
        # within the margin and rounding of min(g1, g2), or of 0 when
        # that is negative: some S_i - U I is not positive definite
        u = Fraction(np.finfo(float).eps) / 2
        scale = max(abs(p) + abs(q) + abs(r) for p, q, r in axes)
        upper = (lam1 + self.ROUNDINGS * u * scale) / Fraction(1.0 - 1e-7)
        assert not all(semidefinite(*S, upper, strict=True) for S in axes)

    @given(st.tuples(*[st.floats(-1.0, 3.0)] * 4))
    def test_no_direction_has_a_smaller_slope(self, coefs):
        a11, a12, a21, a22 = coefs
        lam1 = model_mod._skt_lambda1(*coefs)
        theta = np.linspace(0.0, 0.5 * math.pi, 4097)
        c, s = np.cos(theta), np.sin(theta)
        S = np.empty((theta.size, 2, 2))
        S[:, 0, 0] = 2.0 * a11 * c + a12 * s
        S[:, 0, 1] = S[:, 1, 0] = 0.5 * (a12 * c + a21 * s)
        S[:, 1, 1] = a21 * c + 2.0 * a22 * s
        least = np.linalg.eigvalsh(S)[:, 0].min()
        # roundings relative to the entries, and underflow near zero
        tiny = np.finfo(float).smallest_subnormal
        tol = 16 * (np.finfo(float).eps * sum(abs(a) for a in coefs) + tiny)
        assert lam1 - tol <= max(least, 0.0)
        assert max(least, 0.0) * (1.0 - 1e-7) <= lam1 + tol


def scipy_halton(n, d, seed):
    from scipy.stats import qmc
    return qmc.Halton(d=d, scramble=True,
                      seed=np.random.default_rng([seed, 0x48])).random(n)


class TestScrambledHalton:
    """model._halton is scipy's scrambled qmc.Halton, bit for bit,
    without importing scipy.stats."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    # 2**14 + 1 needs one digit more in base 2 than every index before it
    @pytest.mark.parametrize("n", [1, 2, 17, 2**14 + 1, 150_001])
    def test_matches_scipy(self, seed, d, n):
        got = model_mod._halton(n, d, np.random.default_rng([seed, 0x48]))
        want = scipy_halton(n, d, seed)
        assert got.shape == want.shape == (n, d)
        assert got.tobytes() == want.tobytes()

    def test_matches_scipy_in_thirty_dimensions(self):
        # bases are the first 30 primes, 2 to 113
        got = model_mod._halton(257, 30, np.random.default_rng([5, 0x48]))
        assert got.tobytes() == scipy_halton(257, 30, 5).tobytes()

    @pytest.mark.parametrize("m,n,seed", [(1, 9, 3), (2, 1001, 1), (3, 500, 7)])
    def test_region_sample_keeps_the_scipy_draw(self, m, n, seed):
        # the Halton rows of Region.sample as drawn through scipy.stats
        region = Region(tuple(-1.0 - k for k in range(m)),
                        tuple(2.0 + 0.5 * k for k in range(m)))
        pts = region.sample(n, seed)
        lo, hi = np.array(region.lo), np.array(region.hi)
        want = scipy_halton((n + 1) // 2, m, seed) * (hi - lo) + lo
        assert pts[0::2].tobytes() == want.tobytes()


def spectral_batches(m, n=2000):
    """Named (n, m, m) batches for the closed-form spectral kernels."""
    rng = np.random.default_rng(m)
    rand = rng.standard_normal((n, m, m))
    x, y = rng.standard_normal((2, n, m))
    return {
        "random": rand,
        "rank1": x[:, :, None] * y[:, None, :],
        "zero": np.zeros((n, m, m)),
        "diagonal": rand * np.eye(m),
        "skew": rand - np.swapaxes(rand, -1, -2),
        "negative": -np.abs(rand),
        "tiny": 1e-100 * rand,
        "huge": 1e100 * rand,
    }


# Every batch kind for the closed form (m = 2); one random batch for the
# sizes that go to LAPACK, to check the dispatch and the output shape.
SPECTRAL_CASES = ([(2, kind) for kind in spectral_batches(2)]
                  + [(1, "random"), (3, "random")])


class TestSpectralKernels:
    """_opnorms and _sym_mineigs against LAPACK, whatever the batch."""

    @pytest.mark.parametrize("m,kind", SPECTRAL_CASES)
    def test_opnorms_match_svd_to_8_ulps(self, m, kind):
        A = spectral_batches(m)[kind]
        want = np.linalg.svd(A, compute_uv=False)[..., 0]
        got = _opnorms(A.transpose(1, 2, 0))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 8 * np.spacing(want))

    @pytest.mark.parametrize("m,kind", SPECTRAL_CASES)
    def test_sym_mineigs_match_eigvalsh(self, m, kind):
        A = spectral_batches(m)[kind]
        sym = 0.5 * (A + np.swapaxes(A, -1, -2))
        want = np.linalg.eigvalsh(sym)[..., 0]
        got = _sym_mineigs(A.transpose(1, 2, 0))
        scale = np.abs(sym).max(axis=(-2, -1))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


class TestCertificationSeed:
    # the direction streams 0xD1 and 0xD2 read the seed as well as the
    # region sample
    def test_fractional_seed_rejected(self, skt):
        with pytest.raises(InputError, match="whole number"):
            verify_structure(skt, Region.positive(10.0, 2), n=50, seed=2.9)
        with pytest.raises(InputError, match="whole number"):
            compute_lambda_l(skt, 1.0, n=50, seed=2.9)

    def test_whole_number_float_seed_draws_the_same(self, skt):
        region = Region.positive(10.0, 2)
        a = model_mod._certification_draw(skt, region, 50, 2.0)
        b = model_mod._certification_draw(skt, region, 50, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert (compute_lambda_l(skt, 1.0, n=50, seed=2.0)
                == compute_lambda_l(skt, 1.0, n=50, seed=2))


class TestComputeLambdaL:
    def test_scalar_collapses_to_l_plus_one(self):
        spec = ModelSpec(P=PolynomialMap(1, [[(1.0, (1,)), (1.0, (3,))]]),
                         lam=LambdaSpec(1.0, 3.0, 2.0))
        for l in (0.0, 1.0, 2.0):
            v = compute_lambda_l(spec, l, n=2000, seed=0)
            assert v == pytest.approx(l + 1.0, abs=1e-12)

    def test_isotropic_matrix_gives_one(self, heat2):
        v = compute_lambda_l(heat2, 1.0, n=20000, seed=0)
        assert v == pytest.approx(1.0, abs=1e-6)
        assert v >= 1.0 - 1e-12

    def test_l_zero_is_symmetric_min_eigenvalue(self):
        # A = [[2,1],[0,3]]: mineig(sym A) = 5/2 - sqrt(1/2)
        spec = ModelSpec(
            P=PolynomialMap(2, [[(2.0, (1, 0)), (1.0, (0, 1))], [(3.0, (0, 1))]]),
            lam=LambdaSpec(1.0))
        exact = 2.5 - math.sqrt(0.5)
        v = compute_lambda_l(spec, 0.0, n=50000, seed=0)
        assert v >= exact - 1e-12
        assert v == pytest.approx(exact, abs=1e-4)

    @pytest.mark.parametrize("l,scan", [
        # dense (uhat, w) angle-scan oracle, 4001 x 4003 grid
        (1.0, 1.751264436471321),
        (2.0, 1.6912108097368201),
    ])
    def test_anisotropic_against_scan_oracle(self, l, scan):
        spec = ModelSpec(
            P=PolynomialMap(2, [[(2.0, (1, 0)), (1.0, (0, 1))], [(3.0, (0, 1))]]),
            lam=LambdaSpec(1.0))
        v = compute_lambda_l(spec, l, n=200000, seed=0)
        assert v == pytest.approx(scan, abs=1e-3)

    def test_monotone_in_sample_count(self):
        spec = ModelSpec(
            P=PolynomialMap(2, [[(2.0, (1, 0)), (1.0, (0, 1))], [(3.0, (0, 1))]]),
            lam=LambdaSpec(1.0))
        vals = [compute_lambda_l(spec, 1.0, n=n, seed=3)
                for n in (1000, 4000, 16000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_l_rejected(self, heat2):
        with pytest.raises(InputError):
            compute_lambda_l(heat2, -0.5)

    @pytest.mark.parametrize("kwargs,match", [
        ({"l": math.nan}, "l must be finite"),
        ({"l": math.inf}, "l must be finite"),
        ({"l": 1.0, "delta": math.nan}, "delta"),
        ({"l": 1.0, "delta": math.inf}, "delta"),
        ({"l": 1.0, "delta": 0.0}, "delta"),
        ({"l": 1.0, "delta": -0.5}, "delta")])
    def test_bad_parameters_rejected_before_the_draw(self, heat2, kwargs,
                                                     match, monkeypatch):
        # l = NaN returned the l = 0 value (NaN < 0 and NaN > 0 are both
        # False) and l = inf returned NaN
        def no_draw(*args):
            raise AssertionError("drew the sample")

        monkeypatch.setattr(model_mod, "_certification_draw", no_draw)
        with pytest.raises(InputError, match=match):
            compute_lambda_l(heat2, n=100, **kwargs)


class TestWithSigma:
    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_transforms_evaluate_at_scaled_state(self, sigma):
        spec = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0,
                           lv=(1.0, 1.0, 1.0, 0.5, 0.5, 1.0))
        scaled = with_sigma(spec, sigma)
        rng = np.random.default_rng(0)
        u = rng.uniform(0.1, 3.0, size=2)
        g = rng.normal(size=(2, 2))
        assert np.allclose(eval_A(scaled, u), eval_A(spec, sigma * u),
                           rtol=1e-12, atol=1e-12)
        assert eval_lambda(scaled, u) == pytest.approx(
            eval_lambda(spec, sigma * u), rel=1e-12)
        assert np.allclose(eval_reaction(scaled, u, g),
                           eval_reaction(spec, sigma * u, sigma * g),
                           rtol=1e-10, atol=1e-12)

    def test_sigma_out_of_range(self, skt):
        with pytest.raises(InputError):
            with_sigma(skt, 1.5)


class TestSerialization:
    def check_equivalent(self, a, b, m, with_gradient=True):
        rng = np.random.default_rng(4)
        U = rng.uniform(-2.0, 2.0, size=(64, m))
        G = rng.normal(size=(64, m, 2))
        assert np.array_equal(eval_P(a, U.T), eval_P(b, U.T))
        assert np.array_equal(eval_A(a, U.T), eval_A(b, U.T))
        assert np.array_equal(eval_lambda(a, U.T), eval_lambda(b, U.T))
        if with_gradient:
            G = G.transpose(1, 2, 0)
            assert np.array_equal(eval_reaction(a, U.T, G),
                                  eval_reaction(b, U.T, G))

    def test_dict_round_trip_competitive(self, skt_lv):
        again = model_from_dict(model_to_dict(skt_lv))
        self.check_equivalent(skt_lv, again, 2)

    def test_dict_round_trip_general(self, decay_model):
        again = model_from_dict(model_to_dict(decay_model))
        self.check_equivalent(decay_model, again, 1)
        assert again.C_f == decay_model.C_f

    def test_dict_round_trip_keeps_the_reaction_kind(self, skt_lv,
                                                     decay_model):
        for spec in (skt_lv, decay_model):
            d = model_to_dict(spec)
            again = model_from_dict(d)
            assert type(again.reaction) is type(spec.reaction)
            assert model_to_dict(again) == d

    @pytest.mark.parametrize("reaction", [
        [1.0, 2.0],
        {"general": None},
        {"general": {"f": [[[-1.0, 1]]]}, "K": [[1.0]], "kappa": 1.0,
         "c0": 1.0},
        {"general": {}, "kappa": 1.0},
        {"K": [[1.0]], "c0": 1.0},
        {"K": [[1.0]], "kappa": 1.0},
    ])
    def test_malformed_reaction_raises(self, tmp_path, reaction):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"m": 1, "P": [[[1.0, 1]]],
                                    "lambda": {"lambda0": 1.0},
                                    "reaction": reaction}))
        with pytest.raises(InputError, match="reaction|kappa|c0"):
            load_model(path)

    @pytest.mark.parametrize("key,value", [
        ("m", "two"), ("lambda", {"lambda0": "x"}),
        ("lambda", {"lambda0": 1.0, "k": "y"}), ("P", [[["a", 1]]]),
        ("C_f", "big"),
        ("reaction", {"K": [[1.0]], "kappa": "abc", "c0": 1.0}),
        ("reaction", {"K": [[1.0]], "kappa": 1.0, "c0": "?"}),
        ("reaction", {"K": [["k"]], "kappa": 1.0, "c0": 1.0}),
    ])
    def test_non_numeric_string_raises(self, key, value):
        # a string where a number belongs let a bare ValueError out
        d = {"m": 1, "P": [[[1.0, 1]]], "lambda": {"lambda0": 1.0}}
        d[key] = value
        with pytest.raises(InputError, match="must be a (whole )?number"):
            model_from_dict(d)

    # every object of a model dict that model_from_dict reads, with all
    # the keys model_to_dict writes in it
    FULL = {
        "competitive": {
            "m": 1, "P": [[[1.0, 1]]], "C_f": None, "name": "full",
            "lambda": {"lambda0": 1.0, "lambda1": 0.0, "k": 0.0},
            "reaction": {"K": [[1.0]], "B": [[0, 1, 0.5, 0.0, 0]],
                         "G": [[0, 0, 1.0, 1.0, 0]], "kappa": 1.0,
                         "c0": 1.0}},
        "general": {
            "m": 1, "P": [[[1.0, 1]]], "C_f": 2.0, "name": "full",
            "lambda": {"lambda0": 1.0, "lambda1": 0.0, "k": 0.0},
            "reaction": {"general": {"B": [[0, 1, 0.5, 0.0, 0]],
                                     "f": [[[-1.0, 1]]]}}},
    }

    @pytest.mark.parametrize("kind", ["competitive", "general"])
    def test_dict_round_trip_of_every_key(self, kind):
        d = self.FULL[kind]
        assert model_to_dict(model_from_dict(d)) == d

    @pytest.mark.parametrize("kind,path,key", [
        ("competitive", (), "nmae"),
        ("competitive", ("lambda",), "lamda1"),
        ("competitive", ("reaction",), "kapa"),
        ("general", ("reaction", "general"), "f0"),
    ], ids=["model", "lambda", "reaction", "general"])
    def test_unknown_key_raises(self, kind, path, key):
        # "lamda1" loaded as lambda1 = 0, and the run went on
        d = json.loads(json.dumps(self.FULL[kind]))
        node = d
        for name in path:
            node = node[name]
        node[key] = 1.0
        with pytest.raises(InputError, match=repr(key)):
            model_from_dict(d)

    def test_decay_power_only_for_a_competitive_reaction(self, skt_lv,
                                                        decay_model):
        r = skt_lv.reaction
        assert r.decay_power == (r.kappa + 2.0) / 2.0 == 1.5
        assert decay_model.reaction.decay_power is None

    def test_file_round_trip(self, tmp_path, skt_lv):
        path = tmp_path / "model.json"
        save_model(path, skt_lv)
        data = json.loads(path.read_text())
        assert set(data) >= {"m", "P", "lambda", "reaction", "C_f"}
        self.check_equivalent(skt_lv, load_model(path), 2)

    def test_terms_kept_as_constructed(self):
        terms = [[(1.0, (1, 0)), (0.0, (2, 0)), (0.5, (1, 1))], [(2.0, (0, 1))]]
        P = PolynomialMap(2, terms)
        assert P.to_dict() == [[[1.0, 1, 0], [0.0, 2, 0], [0.5, 1, 1]],
                               [[2.0, 0, 1]]]
        assert repr(P) == "PolynomialMap(m=2, terms=4, degree=2)"
        assert P.scaled(2.0).to_dict()[0][1] == [0.0, 2, 0]

    def test_malformed_rejected(self):
        with pytest.raises(InputError, match="component term lists"):
            model_from_dict({"m": 2, "P": [[[1.0, 1]]], "lambda": {"lambda0": 1.0}})
