"""Cross-diffusion models as data.

A model is a polynomial map P (the diffusion potential, with Jacobian
A(u) = P_u(u)), a declared coercivity envelope lambda(u) = lambda0 +
lambda1*|u|^k, and optional reaction data.  This module evaluates those
objects on batches of states and certifies, by seeded sampling over a
declared box, the structural hypotheses the solver and diagnostics rely
on: ellipticity of A against lambda, boundedness of ||A||/lambda, growth
of lambda_u, growth of the zero-order reaction, and the spectral
test-function constants lambda_l.

MatrixPolynomial.__call__ is the one monomial evaluator: every
PolynomialMap (P, and f0 of a GeneralReaction) holds itself and its
Jacobian as MatrixPolynomials of shape (m, 1) and (m, m), so P, A(u),
f0, the reaction matrices B and G and the radial comparison maps all
sum coef * |u|^radial * prod_i u_i^{e_i} through it, term by term.
Each term starts from its scalar coefficient and multiplies in one
component array per nonzero exponent, in component order.

States are component-major, the layout of a field's values: u has the
component on axis 0, shape (m, ...), with any trailing shape (a grid,
a batch of n points, or none).  P and the reactions return (m, ...),
matrix maps (r, c, ...), so A(u) of an (m, Nx, Ny) field is
(m, m, Nx, Ny), and a gradient Du is (m, 2, ...).  The envelope
lambda(u) of an (m, ...) state is (...), and the spectral kernels take
(m, m, ...) batches, so A(u) and lambda(u) are evaluated at the same
states in the same layout.  A point-major (n, m) batch U is passed as
U.T.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, ManifestError, finite, nonnegative, number,
                     number_list, positive, whole_number)

logger = logging.getLogger(__name__)

__all__ = [
    "PolynomialMap",
    "MatrixPolynomial",
    "LambdaSpec",
    "ReactionSpec",
    "GeneralReaction",
    "ModelSpec",
    "Region",
    "StructuralReport",
    "eval_P",
    "eval_A",
    "eval_lambda",
    "eval_reaction",
    "reaction_zero_order",
    "verify_structure",
    "compute_lambda_l",
    "classic_skt",
    "with_sigma",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
]


def _as_components(u, m):
    """Coerce u to a float array whose axis 0 has length m."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[0] != m:
        raise InputError(
            f"state must be component-major, shape ({m}, ...); got {u.shape} "
            "(pass a point-major (n, m) batch as its transpose)")
    return u


class PolynomialMap:
    """Polynomial map R^m -> R^m with no constant terms, so P(0) = 0.

    terms[i] lists the monomials of output component i as (coef, exps)
    pairs; exps is a length-m tuple of nonnegative integer powers.  P
    and its Jacobian A = P_u are built once as MatrixPolynomials of
    shape (m, 1) and (m, m), so evaluation is exact term by term and
    vectorized over the trailing axes of a component-major (m, ...)
    input; P(u) is (m, ...) and A(u) is (m, m, ...).
    """

    def __init__(self, m, terms, max_degree=None):
        self.m = whole_number(m, "component count m")
        if self.m < 1:
            raise InputError("component count must be >= 1")
        terms = [list(comp) for comp in terms]
        if len(terms) != self.m:
            raise InputError(
                f"expected {self.m} component term lists, got {len(terms)}")
        # MatrixPolynomial checks every coefficient and exponent vector
        self._P = MatrixPolynomial(self.m, (self.m, 1), [
            (i, 0, c, 0.0, ex) for i, comp in enumerate(terms) for c, ex in comp])
        self._terms = [[(float(c), tuple(int(e) for e in ex)) for c, ex in comp]
                       for comp in terms]
        for i, comp in enumerate(self._terms):
            if any(c != 0.0 and not any(ex) for c, ex in comp):
                raise InputError(
                    f"component {i} has a constant term; the map must vanish at 0")
            if max_degree is not None and any(sum(ex) > max_degree for _, ex in comp):
                raise InputError(
                    f"component {i} exceeds declared max degree {max_degree}")
        self.max_degree = max((sum(ex) for comp in self._terms for _, ex in comp),
                              default=0)
        self._A = MatrixPolynomial(self.m, (self.m, self.m), [
            (i, j, c * ex[j], 0.0, ex[:j] + (ex[j] - 1,) + ex[j + 1:])
            for i, comp in enumerate(self._terms) for c, ex in comp
            for j in range(self.m) if ex[j]])

    def __call__(self, u):
        return self._P(u)[:, 0]

    def jacobian(self, u):
        return self._A(u)

    def scaled(self, s, power_offset=0):
        """Return the map whose term coefficients are multiplied by
        s**(degree + power_offset); with power_offset=-1 this is
        u -> P(s*u)/s, whose Jacobian is A(s*u)."""
        s = number(s, "s")
        return PolynomialMap(self.m, [
            [(c * s ** (sum(ex) + power_offset), ex) for c, ex in comp]
            for comp in self._terms])

    @classmethod
    def identity(cls, m):
        terms = []
        for i in range(m):
            ex = [0] * m
            ex[i] = 1
            terms.append([(1.0, tuple(ex))])
        return cls(m, terms)

    def to_dict(self):
        return [[[c, *ex] for c, ex in comp] for comp in self._terms]

    @classmethod
    def from_dict(cls, m, data):
        terms = [[(row[0], tuple(row[1:])) for row in comp] for comp in data]
        return cls(m, terms)

    def __repr__(self):
        nt = sum(len(comp) for comp in self._terms)
        return f"PolynomialMap(m={self.m}, terms={nt}, degree={self.max_degree})"


class MatrixPolynomial:
    """Matrix-valued map u -> M(u) with entries that are sums of
    coef * |u|^radial * prod_i u_i^{e_i}.

    The radial factor admits non-polynomial comparison data such as
    G(u) = |u| * Id.  terms is an iterable of (i, j, coef, radial, exps);
    i and j must be integer indices into shape, coef and radial finite,
    radial nonnegative, and exps m nonnegative integers (whole-number
    floats such as 2.0 count, bools do not).  Terms with a zero
    coefficient are dropped.  M(u) of a component-major (m, ...) state
    has shape shape + (...).
    """

    def __init__(self, m, shape, terms):
        self.m = whole_number(m, "component count m")
        self.shape = (whole_number(shape[0], "matrix shape"),
                      whole_number(shape[1], "matrix shape"))
        self._terms = []
        for i, j, c, s, ex in terms:
            where = f"entry ({i}, {j})"
            i, j = (whole_number(k, f"{where}: matrix index") for k in (i, j))
            if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
                raise InputError(f"{where}: matrix index out of range")
            c = finite(c, f"{where}: coefficient")
            s = nonnegative(s, f"{where}: radial power")
            ex = tuple(whole_number(e, f"{where}: exponent") for e in ex)
            if len(ex) != self.m:
                raise InputError(
                    f"{where}: exponent vector must have length {self.m}")
            if any(e < 0 for e in ex):
                raise InputError(f"{where}: exponents {ex} must be nonnegative integers")
            if c != 0.0:
                self._terms.append((i, j, c, s, ex))

    def __call__(self, u):
        u = _as_components(u, self.m)
        out = np.zeros(self.shape + u.shape[1:])
        r = None
        for i, j, c, s, ex in self._terms:
            v = c
            for comp, e in zip(u, ex):
                if e == 1:
                    v = v * comp
                elif e:
                    v = v * comp ** e
            if s:
                if r is None:
                    r = np.linalg.norm(u, axis=0)
                v = v * r ** s
            out[i, j] += v
        return out

    def scaled(self, s, prefactor=1.0):
        """Return u -> prefactor * M(s*u): coefficients pick up
        prefactor * s**(radial + degree)."""
        s = number(s, "s")
        terms = [(i, j, c * prefactor * s ** (rad + sum(ex)), rad, ex)
                 for i, j, c, rad, ex in self._terms]
        return MatrixPolynomial(self.m, self.shape, terms)

    @classmethod
    def constant(cls, m, M):
        M = np.asarray(M, dtype=float)
        zero = (0,) * m
        terms = [(i, j, M[i, j], 0.0, zero)
                 for i in range(M.shape[0]) for j in range(M.shape[1])]
        return cls(m, M.shape, terms)

    @classmethod
    def radial_identity(cls, m, coef=1.0, power=1.0):
        """G(u) = coef * |u|^power * Id."""
        zero = (0,) * m
        return cls(m, (m, m), [(i, i, coef, power, zero) for i in range(m)])

    def to_dict(self):
        return [[i, j, c, s, *ex] for i, j, c, s, ex in self._terms]

    @classmethod
    def from_dict(cls, m, shape, data):
        return cls(m, shape, [(r[0], r[1], r[2], r[3], tuple(r[4:])) for r in data])

    def __repr__(self):
        return f"MatrixPolynomial(m={self.m}, shape={self.shape}, terms={len(self._terms)})"


@dataclass(frozen=True)
class LambdaSpec:
    """Coercivity envelope lambda(u) = lambda0 + lambda1 * |u|^k."""

    lambda0: float
    lambda1: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda0", positive(self.lambda0, "lambda0"))
        object.__setattr__(self, "lambda1", nonnegative(self.lambda1, "lambda1"))
        object.__setattr__(self, "k", nonnegative(self.k, "k"))

    @property
    def lambda_S(self):
        return self.lambda0 + self.lambda1

    def __call__(self, u):
        """lambda at a component-major state u, (m, ...); returns (...)."""
        u = np.asarray(u, dtype=float)
        if self.lambda1 == 0.0:
            return np.full(u.shape[1:], self.lambda0)
        r = np.linalg.norm(u, axis=0)
        return self.lambda0 + self.lambda1 * r ** self.k

    def grad_norm(self, u):
        """|lambda_u(u)| = lambda1 * k * |u|^(k-1) (radial gradient) at
        a component-major state u, (m, ...); returns (...)."""
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u, axis=0)
        c = self.lambda1 * self.k
        if c == 0.0:  # not c * r**(k-1): 0 * inf is NaN at r = 0
            return np.zeros(r.shape)
        with np.errstate(divide="ignore"):  # r = 0 with k < 1 gives inf
            return c * r ** (self.k - 1.0)

    def to_dict(self):
        return {"lambda0": self.lambda0, "lambda1": self.lambda1, "k": self.k}

    @classmethod
    def from_dict(cls, d):
        return cls(d["lambda0"], d.get("lambda1", 0.0), d.get("k", 0.0))


def _flatten_gradient(g, m):
    """(m, 2, ...) gradient -> (2m, ...) in the order (du1/dx, du1/dy,
    du2/dx, ...)."""
    g = np.asarray(g, dtype=float)
    if g.shape[:2] != (m, 2):
        raise InputError(
            f"gradient must have shape ({m}, 2, ...); got {g.shape}")
    return g.reshape((2 * m,) + g.shape[2:])


class _Reaction:
    """f(u, Du) = B(u) Du + zero_order(u) on a component-major state u,
    (m, ...), and gradient Du, (m, 2, ...); subclasses supply m, the
    optional MatrixPolynomial B of shape (m, 2m) and zero_order.
    decay_power is the exponent p of the comparison dynamics
    y' <= C1 y - C3 y^p of the squared L2 norm y that a competitive
    reaction gives, None for any other reaction."""

    decay_power = None

    def __call__(self, u, g):
        out = self.zero_order(u)
        if self.B is not None:
            gf = _flatten_gradient(g, self.m)
            out = out + np.einsum("ij...,j...->i...", self.B(u), gf)
        return out


@dataclass(frozen=True)
class ReactionSpec(_Reaction):
    """Competitive reaction f(u, Du) = B(u) Du + K u - G(u) u with the
    coercivity declaration <G(w)u, u> >= c0 |w|^kappa |u|^2."""

    K: np.ndarray
    B: MatrixPolynomial | None
    G: MatrixPolynomial | None
    kappa: float
    c0: float

    def __post_init__(self):
        K = self.K.tolist() if isinstance(self.K, np.ndarray) else self.K
        if not (isinstance(K, (list, tuple)) and K and all(
                isinstance(row, (list, tuple)) and len(row) == len(K) for row in K)):
            raise InputError("K must be a square matrix")
        K = np.array([number_list(row, "K", finite) for row in K])
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "kappa", positive(self.kappa, "kappa"))
        object.__setattr__(self, "c0", positive(self.c0, "c0"))

    @property
    def m(self):
        return self.K.shape[0]

    @property
    def decay_power(self):
        return (self.kappa + 2.0) / 2.0

    def zero_order(self, u):
        u = _as_components(u, self.m)
        out = np.tensordot(self.K, u, axes=1)
        if self.G is not None:
            out = out - np.einsum("ij...,j...->i...", self.G(u), u)
        return out


@dataclass(frozen=True)
class GeneralReaction(_Reaction):
    """General reaction f(u, Du) = B(u) Du + f0(u)."""

    m: int
    B: MatrixPolynomial | None = None
    f0: PolynomialMap | None = None

    def zero_order(self, u):
        u = _as_components(u, self.m)
        if self.f0 is None:
            return np.zeros(u.shape)
        return self.f0(u)


@dataclass(frozen=True)
class ModelSpec:
    """A full model: diffusion potential P, envelope lambda, reaction.

    C_f, when declared, bounds the zero-order reaction by
    |f(u)| <= C_f * lambda_S^{-1} * |u| * lambda(u); the verifier
    compares the sampled ratio against it.
    """

    P: PolynomialMap
    lam: LambdaSpec
    reaction: ReactionSpec | GeneralReaction | None = None
    C_f: float | None = None
    name: str = ""

    def __post_init__(self):
        m = self.P.m
        r = self.reaction
        if r is not None:
            if not isinstance(r, _Reaction):
                raise InputError("unsupported reaction object")
            if r.m != m:
                raise InputError("reaction dimension does not match P")
            if r.B is not None and (r.B.m != m or r.B.shape != (m, 2 * m)):
                raise InputError(f"B must map to a {m}x{2 * m} matrix")
        if isinstance(r, ReactionSpec):
            if r.G is not None and (r.G.m != m or r.G.shape != (m, m)):
                raise InputError(f"G must map to a {m}x{m} matrix")
            if self.lam.k > 0 and r.kappa > self.lam.k + 1e-12:
                raise InputError("kappa must not exceed the lambda exponent k")
        elif isinstance(r, GeneralReaction):
            if r.f0 is not None and r.f0.m != m:
                raise InputError("zero-order map dimension does not match P")
        if self.C_f is not None:
            object.__setattr__(self, "C_f", positive(self.C_f, "C_f"))

    @property
    def m(self):
        return self.P.m


def eval_P(spec, u):
    """Evaluate the diffusion potential P at a component-major state
    u, (m, ...); returns (m, ...)."""
    return spec.P(u)


def eval_A(spec, u):
    """Evaluate A(u) = P_u(u), the Jacobian of P, analytically, at a
    component-major state u, (m, ...); returns (m, m, ...)."""
    return spec.P.jacobian(u)


def eval_lambda(spec, u):
    """Evaluate the declared envelope lambda(u) = lambda0 + lambda1 |u|^k
    at a component-major state u, (m, ...); returns (...)."""
    return spec.lam(_as_components(u, spec.m))


def eval_reaction(spec, u, g):
    """Evaluate the reaction f(u, Du) at a component-major state u,
    (m, ...), with gradient g, (m, 2, ...); returns (m, ...)."""
    if spec.reaction is None:
        return np.zeros(_as_components(u, spec.m).shape)
    return spec.reaction(u, g)


def reaction_zero_order(spec, u):
    """The zero-order part f(u) of the reaction (0 if no reaction) at a
    component-major state u, (m, ...); returns (m, ...)."""
    if spec.reaction is None:
        return np.zeros(_as_components(u, spec.m).shape)
    return spec.reaction.zero_order(u)


def _first_primes(d):
    """The first d primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _halton(n, d, rng):
    """The first n points of a scrambled Halton sequence in [0, 1)^d.

    A port of Halton from scipy.stats._qmc (Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause) that draws the
    same permutations from the same generator and does the same float
    operations in the same order, so it returns
    qmc.Halton(d, scramble=True, seed=rng).random(n) bit for bit without
    importing scipy.stats.  Scrambling is Owen's random digit permutation
    (A. B. Owen, "A randomized Halton algorithm in R", arXiv:1706.02808):
    coordinate k is the base-p van der Corput sequence of the k-th prime
    p, with digit j of every index mapped through permutation j of
    range(p).  A double resolves 54 bits, so ceil(54 / log2(p)) - 1
    digits are summed.  Once every index has run out of digits the
    remaining ones are all 0, and their terms are added as scalars.
    Like scipy, it shuffles with a child generator spawned from rng's
    seed sequence, not with rng itself.  Needs n >= 1.
    """
    bg = rng.bit_generator
    child = np.random.Generator(type(bg)(bg._seed_seq.spawn(1)[0]))
    bases = _first_primes(d)
    perms = []
    for base in bases:  # every permutation is drawn before any point
        count = math.ceil(54 / math.log2(base)) - 1
        rows = np.repeat(np.arange(base)[None], count, axis=0)
        for row in rows:
            child.shuffle(row)
        perms.append(rows)
    out = np.zeros((d, n))
    for v, base, rows in zip(out, bases, perms):
        q = np.arange(n)
        b2r = 1.0 / base
        for row in rows:
            if q[-1]:  # q is nondecreasing: some index has digits left
                q, r = np.divmod(q, base)
                v += row[r] * b2r
            else:
                v += row[0] * b2r
            b2r /= base
    return out.T


@dataclass(frozen=True)
class Region:
    """Axis-aligned sampling box."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = number_list(self.lo, "region lo", finite)
        hi = number_list(self.hi, "region hi", finite)
        if len(lo) != len(hi) or not lo:
            raise InputError("region bounds must have equal, positive length")
        if any(not (h > l) for l, h in zip(lo, hi)):
            raise InputError("degenerate region: need hi > lo in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def symmetric(cls, U, m):
        U = number(U, "U")
        return cls((-U,) * m, (U,) * m)

    @classmethod
    def positive(cls, U, m):
        return cls((0.0,) * m, (number(U, "U"),) * m)

    @property
    def m(self):
        return len(self.lo)

    def sample(self, n, seed):
        """Deterministic sample of n points, interleaving a scrambled
        Halton stream (even indices; `_halton`, scipy's qmc.Halton bit
        for bit) with uniform random points (odd indices).  For a fixed
        seed the first n rows of a larger draw equal a draw of size n, so
        enlarging a sample only appends."""
        n = whole_number(n, "sample count n")
        seed = whole_number(seed, "seed")
        if n < 1:
            raise InputError("sample count must be >= 1")
        m = self.m
        n_q = (n + 1) // 2
        pts = np.empty((n, m))
        pts[0::2] = _halton(n_q, m, np.random.default_rng([seed, 0x48]))
        if n - n_q:
            rng = np.random.default_rng([seed, 0x55])
            pts[1::2] = rng.random((n - n_q, m))
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        pts *= hi - lo  # in place: the bits of lo + pts * (hi - lo)
        pts += lo
        return pts

    def to_dict(self):
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or set(d) - {"lo", "hi"}:
            raise ManifestError(f"a region is an object with lo and hi only, got {d!r}")
        return cls(d["lo"], d["hi"])


@dataclass
class StructuralReport:
    """Sampled certificates for the structural hypotheses of a model."""

    lambda_ratio_min: float
    lambda_ratio_max: float
    C_star_hat: float
    Lambda_hat: float
    Lambda1_hat: float
    eps0_hat: float
    C_f_hat: float
    C_P_hat: float
    lambda_l: dict
    ellipticity_pass: bool
    growth_pass: bool
    f_pass: bool
    sg_pass: bool
    sg_prime_pass: bool
    delta_k: float
    tol_ell: float
    sample_count: int
    region: Region
    seed: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (self.ellipticity_pass and self.growth_pass
                       and self.f_pass and self.sg_pass and self.sg_prime_pass)


def _opnorms(A):
    """Largest singular value per matrix in an (m, m, ...) batch.

    m = 2 is the closed form
    sigma_max = (|(a+d, b-c)| + |(a-d, b+c)|) / 2 of [[a, b], [c, d]],
    a sum of two nonnegative hypotenuses, so it has no cancellation and
    matches LAPACK to a few ulps.  Every other m calls LAPACK's SVD.
    """
    if len(A) == 2:
        (a, b), (c, d) = A
        return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    return np.linalg.svd(np.moveaxis(A, (0, 1), (-2, -1)), compute_uv=False)[..., 0]


def _sym_mineigs(A):
    """Smallest eigenvalue of the symmetric part per matrix in an
    (m, m, ...) batch.

    m = 2 is closed form: for sym A = [[a, s], [s, d]] it is
    (a+d)/2 - |((a-d)/2, s)|, exact to about eps * max|sym A| as
    eigvalsh is.  Every other m calls LAPACK's eigvalsh.
    """
    if len(A) == 2:
        (a, b), (c, d) = A
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), 0.5 * (b + c))
    A = np.moveaxis(A, (0, 1), (-2, -1))
    return np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))[..., 0]


def verify_structure(spec, region, n=10000, seed=0, delta_k=0.99, tol_ell=1e-9,
                     ls=(0.0, 1.0, 2.0)):
    """Sample the region and certify the structural hypotheses.

    Returns a StructuralReport.  Ellipticity is declared violated when
    any sample has mineig(sym A(u)) < lambda(u) * (1 - tol_ell) or a
    nonpositive minimum eigenvalue.  The sample set is reproducible from
    (region, n, seed) via region.sample.  The draw is held once; every
    check runs over it in slices of _SLICE samples and reduces by min and
    max, so the report does not depend on the slice size.
    """
    if not isinstance(region, Region):
        region = Region(*region)
    ls = [nonnegative(l, "l") for l in number_list(ls, "ls")]
    delta_k = positive(delta_k, "delta_k")
    tol_ell = nonnegative(tol_ell, "tol_ell")
    sample = _certification_draw(spec, region, n, seed)
    lam_l = {l: compute_lambda_l(spec, l, delta=delta_k, _sample=sample)
             for l in ls}
    U, lam, A = sample[:3]
    del sample  # the directions are no longer needed
    eps0 = 1.0 / spec.lam.k if spec.lam.k > 1.0 else 1.0
    (ratio_mins, ratio_maxs, C_stars, Lambdas, Lambda1s, C_Ps, C_fs,
     mineig_positive) = zip(*(_slice_checks(spec, U[:, s], lam[s], A[..., s], eps0)
                       for s in _slices(len(lam))))
    ratio_min = float(np.min(ratio_mins))
    ratio_max = float(np.max(ratio_maxs))
    C_star = float(np.max(C_stars))
    Lambda_hat = float(np.max(Lambdas))
    Lambda1_hat = float(np.max(Lambda1s))
    C_P_hat = float(_max_or_zero(C_Ps))
    C_f_hat = float(_max_or_zero(C_fs))

    ellipticity_pass = bool(all(mineig_positive) and ratio_min >= 1.0 - tol_ell)
    growth_pass = bool(np.isfinite(C_P_hat))
    f_pass = bool(np.isfinite(C_f_hat) and
                  (spec.C_f is None or C_f_hat <= spec.C_f * (1.0 + 1e-12)))
    sg_pass = bool(np.isfinite(C_star))          # (n_space-2)/n_space = 0 in 2D
    k = spec.lam.k
    sg_prime_pass = bool(k <= 2.0 or (k - 2.0) / k <= delta_k / C_star)

    return StructuralReport(
        lambda_ratio_min=ratio_min, lambda_ratio_max=ratio_max,
        C_star_hat=C_star, Lambda_hat=Lambda_hat,
        Lambda1_hat=Lambda1_hat, eps0_hat=eps0,
        C_f_hat=C_f_hat, C_P_hat=C_P_hat, lambda_l=lam_l,
        ellipticity_pass=ellipticity_pass, growth_pass=growth_pass,
        f_pass=f_pass, sg_pass=sg_pass, sg_prime_pass=sg_prime_pass,
        delta_k=delta_k, tol_ell=tol_ell,
        sample_count=len(lam), region=region, seed=int(seed))


# Samples per slice of the certification draw's per-sample work: the draw
# is held whole (104 bytes per sample at m = 2), the temporaries of one
# slice come on top.
_SLICE = 1 << 15


def _slices(n):
    """Consecutive slices of at most _SLICE samples covering range(n)."""
    return [slice(i, min(i + _SLICE, n)) for i in range(0, n, _SLICE)]


def _max_or_zero(values):
    """Max over the slices that have a value (states off the origin), 0
    when none has."""
    values = [v for v in values if v is not None]
    return np.max(values) if values else 0.0


def _slice_checks(spec, U, lam, A, eps0):
    """The extrema of verify_structure's checks on one slice: min and
    max of mineig/lambda, C_*, Lambda, Lambda1, C_P and C_f (None when
    no state is off the origin, C_f also without a reaction), and
    whether every mineig is positive."""
    mineig = _sym_mineigs(A)
    ratio = mineig / lam
    gradn = spec.lam.grad_norm(U)
    un = np.linalg.norm(U, axis=0)
    mask = un > 0
    C_P = C_f = None
    if mask.any():
        Pn = np.linalg.norm(eval_P(spec, U), axis=0)
        C_P = np.max(Pn[mask] / (lam[mask] * un[mask]))
        if spec.reaction is not None:
            fn = np.linalg.norm(reaction_zero_order(spec, U), axis=0)
            C_f = np.max(fn[mask] * spec.lam.lambda_S / (un[mask] * lam[mask]))
    return (ratio.min(), ratio.max(), np.max(_opnorms(A) / lam),
            np.max(gradn / lam), np.max(gradn / lam ** (1.0 - eps0)), C_P, C_f,
            bool(np.all(mineig > 0)))


def _unit_rows(v, axis):
    """Scale v in place to unit norm over axis; zero rows stay zero."""
    vn = np.linalg.norm(v, axis=axis, keepdims=True)
    vn[vn == 0] = 1.0
    v /= vn


def _certification_draw(spec, region, n, seed):
    """The certification sample of (region, n, seed): the states
    U = region.sample(n, seed).T, lambda(U), A(U), and per state one unit
    direction d in R^m (stream 0xD1) and one unit m x 2 matrix q
    (stream 0xD2).  Everything after U is filled slice by slice into
    preallocated arrays, each stream continuing across slices, so the
    draw's bits do not depend on the slice size.  Every array has the
    sample axis last: U and d are (m, n), A is (m, m, n) and q is
    (m, 2, n).  standard_normal(out=) fills only C-contiguous arrays, so
    d and q are views of (n, m) and (n, m, 2) buffers that the streams
    fill one sample per row, as region.sample fills U; that keeps the
    draw's bits."""
    if region.m != spec.m:
        raise InputError("region dimension does not match the model")
    seed = whole_number(seed, "seed")
    U = region.sample(n, seed).T
    m, n = U.shape
    lam, A = np.empty(n), np.empty((m, m, n))
    d, q = np.empty((n, m)), np.empty((n, m, 2))
    d_rng = np.random.default_rng([seed, 0xD1])
    q_rng = np.random.default_rng([seed, 0xD2])
    for s in _slices(n):
        lam[s] = eval_lambda(spec, U[:, s])
        A[..., s] = eval_A(spec, U[:, s])
        _unit_rows(d_rng.standard_normal(out=d[s]), -1)
        _unit_rows(q_rng.standard_normal(out=q[s]), (-2, -1))
    return U, lam, A, d.T, q.transpose(1, 2, 0)


def _quotients(A, d, q, l, uhat):
    """The unnormalized quotients <A x, x> + l <A x, uhat><x, uhat> of one
    slice of the draw, sample axis last: v1 for x = d (m, n), and v2 the
    sum over the columns x of q (m, c, n), with A (m, m, n) and uhat =
    u/|u| (m, n) when l > 0.  Every sum runs over the components in
    index order, so each sample is summed on its own."""
    def dot(x, y):
        s = x[0] * y[0]
        for a, b in zip(x[1:], y[1:]):
            s += a * b
        return s

    def form(x):
        Ax = [dot(row, x) for row in A]
        if l > 0:
            return dot(Ax, x) + l * dot(Ax, uhat) * dot(x, uhat)
        return dot(Ax, x)

    return form(d), sum(form(x) for x in q.transpose(1, 0, 2))


def compute_lambda_l(spec, l, n=100000, seed=0, region=None, delta=0.99,
                     _sample=None):
    """Brute-force the spectral test-function constant lambda_l.

    Samples states u over the region and matrix directions q, and
    returns the infimum of <A(u) q, M_l(u) q> / (lambda(u) |u|^l |q|^2)
    where M_l(u) = |u|^l Id + l |u|^(l-2) u (x) u is the Jacobian of
    u -> |u|^l u.  The |u|^l factor cancels, which keeps the quotient
    finite for all sampled magnitudes.  Every sample is tested against
    one rank-one direction (the infimum over matrices is attained on
    rank-one q) and one full random matrix, each drawn from its own
    seeded stream, so enlarging n only adds (u, q) pairs and the
    returned infimum is nonincreasing in n.  A positive return value
    is an empirical certificate.  _sample, when given, is the
    _certification_draw to use in place of drawing (region, n, seed).

    Since <A q, M_l q> / |u|^l = <A q, q> + l <A q, uhat><q, uhat> with
    uhat = u/|u|, _quotients computes that form column by column.  Its
    rows are checked against the same form in exact rational arithmetic,
    within the gamma_n bound of their terms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Sec. 3.1).  The quotients
    run in slices of _SLICE samples and reduce by min; each sample is
    summed on its own, so the value does not depend on the slice size.
    States at the origin are dropped for l > 0.  C_* = max ||A||/lambda
    over the kept states feeds only the spectral-gap gate l/(l+2) <=
    delta/C_*, which is logged at INFO and not enforced, so C_* is
    computed only when that log is on.
    """
    l = nonnegative(l, "l")
    delta = positive(delta, "delta")
    if _sample is None:
        if region is None:
            region = Region.symmetric(10.0, spec.m)
        elif not isinstance(region, Region):
            region = Region(*region)
        _sample = _certification_draw(spec, region, n, seed)
    gate_logged = l > 0 and logger.isEnabledFor(logging.INFO)
    C_stars, mins = [], []
    for s in _slices(_sample[0].shape[1]):
        U, lam, A, d, q = (x[..., s] for x in _sample)
        uhat = None
        if l > 0:
            un = np.linalg.norm(U, axis=0)
            keep = un > 0
            if not keep.all():
                if not keep.any():
                    continue
                U, un, lam, A, d, q = (x[..., keep] for x in (U, un, lam, A, d, q))
            uhat = U / un
            if gate_logged:
                C_stars.append(np.max(_opnorms(A) / lam))
        vals1, vals2 = _quotients(A, d, q, l, uhat)
        vals1 /= lam
        vals2 /= lam
        mins.append((vals1.min(), vals2.min()))
    if l > 0 and not mins:
        raise InputError("all samples at the origin; quotient undefined for l > 0")
    if C_stars:
        C_star = float(np.max(C_stars))
        if l / (l + 2.0) > delta / C_star:
            logger.info("spectral-gap gate fails for l=%g (C_*~%.3g); "
                        "the certified constant may be nonpositive", l, C_star)
    min1, min2 = (np.min(v) for v in zip(*mins))
    return float(min(min1, min2))


def _skt_lambda1(a11, a12, a21, a22):
    """Certified linear coercivity slope for the classic quadratic map.

    Along any positive-orthant ray u = s*d the symmetric part of A is an
    affine matrix pencil, so its minimum eigenvalue is concave in s and
    bounded below by mineig(A(0)) + s * mineig(S(d)), where S(d) =
    d1 S1 + d2 S2 is the symmetric part of A_lin(d).  By Weyl's
    inequality (Horn & Johnson, Matrix Analysis, 2nd ed., Thm 4.3.1)
    mineig(S(d)) >= d1 g1 + d2 g2 with gi = mineig(Si), and
    d1 + d2 >= 1 on the unit quarter circle, so the infimum of the
    directional slope is min(g1, g2) whenever that is nonnegative; below
    zero the slope is clipped to 0 either way.
    """
    def slope(c, s):
        m11 = 2.0 * a11 * c + a12 * s
        m12 = a12 * c
        m21 = a21 * s
        m22 = a21 * c + 2.0 * a22 * s
        mean = 0.5 * (m11 + m22)
        return mean - math.hypot(0.5 * (m11 - m22), 0.5 * (m12 + m21))

    # small safety margin so the sampled ellipticity ratio stays >= 1
    return max(min(slope(1.0, 0.0), slope(0.0, 1.0)), 0.0) * (1.0 - 1e-7)


def classic_skt(a1, a2, a11, a12, a21, a22, b=None, lv=None):
    """Two-species quadratic cross-diffusion model.

    P = (a1*u + a11*u^2 + a12*u*v,  a2*v + a21*u*v + a22*v^2) with a
    certified envelope lambda(u) = min(a1,a2) + lambda1*|u| on the
    positive orthant (lambda1 is the least eigenvalue of the symmetric
    linear part of A along the two axes, clipped at 0; by Weyl's
    inequality no direction between them has a smaller one; see
    _skt_lambda1).  An
    optional competitive Lotka-Volterra reaction lv = (r1, r2, s11, s12,
    s21, s22) maps to K = diag(r1, r2) and a diagonal matrix map G with
    kappa = 1 and c0 = min(s_ij); the coercivity declaration holds on
    the positive orthant.  b, when given, is a MatrixPolynomial of shape
    (2, 4) multiplying the flattened gradient.
    """
    a1, a2 = positive(a1, "a1"), positive(a2, "a2")
    a11, a12, a21, a22 = (finite(a, name) for a, name in (
        (a11, "a11"), (a12, "a12"), (a21, "a21"), (a22, "a22")))
    comp0 = [(a1, (1, 0))]
    if a11:
        comp0.append((a11, (2, 0)))
    if a12:
        comp0.append((a12, (1, 1)))
    comp1 = [(a2, (0, 1))]
    if a21:
        comp1.append((a21, (1, 1)))
    if a22:
        comp1.append((a22, (0, 2)))
    P = PolynomialMap(2, [comp0, comp1])
    lam1 = _skt_lambda1(a11, a12, a21, a22)
    if lam1 > 0:
        lam = LambdaSpec(min(a1, a2), lam1, 1.0)
    else:
        lam = LambdaSpec(min(a1, a2), 0.0, 0.0)
    reaction = None
    if lv is not None:
        r1, r2, s11, s12, s21, s22 = number_list(lv, "lv", finite)
        if min(s11, s12, s21, s22) <= 0:
            raise InputError(
                "competitive rates must all be positive for the coercivity declaration")
        K = np.diag([r1, r2])
        G = MatrixPolynomial(2, (2, 2), [
            (0, 0, s11, 0.0, (1, 0)), (0, 0, s12, 0.0, (0, 1)),
            (1, 1, s21, 0.0, (1, 0)), (1, 1, s22, 0.0, (0, 1))])
        reaction = ReactionSpec(K=K, B=b, G=G, kappa=1.0, c0=min(s11, s12, s21, s22))
    elif b is not None:
        reaction = GeneralReaction(m=2, B=b)
    return ModelSpec(P=P, lam=lam, reaction=reaction, name="classic_skt")


def with_sigma(spec, sigma):
    """Interpolation transform: replace u by sigma*u inside A and the
    reaction.  Returns a new ModelSpec with P_s(u) = P(sigma*u)/sigma
    (so its Jacobian is A(sigma*u)) and the reaction evaluated at
    (sigma*u, sigma*Du).  Data-level only; no claim is made about the
    transformed model's estimates."""
    sigma = number(sigma, "sigma")
    if not (0.0 <= sigma <= 1.0):
        raise InputError("sigma must lie in [0, 1]")
    P = spec.P.scaled(sigma, power_offset=-1)
    lam = LambdaSpec(spec.lam.lambda0, spec.lam.lambda1 * sigma ** spec.lam.k, spec.lam.k)
    r = spec.reaction
    reaction = None
    B = None if r is None or r.B is None else r.B.scaled(sigma, prefactor=sigma)
    if isinstance(r, ReactionSpec):
        reaction = ReactionSpec(
            K=sigma * r.K, B=B,
            G=None if r.G is None else r.G.scaled(sigma, prefactor=sigma),
            kappa=r.kappa,
            c0=max(r.c0 * sigma ** (1.0 + r.kappa), np.finfo(float).tiny))
    elif isinstance(r, GeneralReaction):
        reaction = GeneralReaction(
            m=r.m, B=B,
            f0=None if r.f0 is None else r.f0.scaled(sigma, power_offset=0))
    return ModelSpec(P=P, lam=lam, reaction=reaction, C_f=spec.C_f,
                     name=f"{spec.name}@sigma={sigma:g}" if spec.name else "")


def model_to_dict(spec):
    d = {"m": spec.m, "P": spec.P.to_dict(), "lambda": spec.lam.to_dict(),
         "C_f": spec.C_f, "name": spec.name}
    r = spec.reaction
    d["reaction"] = None
    B = None if r is None or r.B is None else r.B.to_dict()
    if isinstance(r, ReactionSpec):
        d["reaction"] = {
            "K": r.K.tolist(), "B": B,
            "G": None if r.G is None else r.G.to_dict(),
            "kappa": r.kappa, "c0": r.c0}
    elif isinstance(r, GeneralReaction):
        d["reaction"] = {"general": {
            "B": B, "f": None if r.f0 is None else r.f0.to_dict()}}
    return d


# The keys model_to_dict writes, and so all that model_from_dict reads.
_MODEL_KEYS = {"m", "P", "lambda", "C_f", "name", "reaction"}
_LAMBDA_KEYS = {"lambda0", "lambda1", "k"}
_REACTION_KEYS = {"K", "B", "G", "kappa", "c0"}
_GENERAL_KEYS = {"B", "f"}


def _known_keys(d, known, where):
    unknown = sorted(set(d) - known)
    if unknown:
        raise InputError(
            f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _term_list(key, read, *args):
    """read(*args), the term list under key; its InputError names key."""
    try:
        return read(*args)
    except InputError as e:
        raise InputError(f"{key}: {e}") from e


def model_from_dict(d):
    """The ModelSpec of a dict as model_to_dict writes it; a missing,
    malformed or unknown key raises InputError."""
    try:
        _known_keys(d, _MODEL_KEYS, "model")
        m = whole_number(d["m"], "component count m")
        P = _term_list("P", PolynomialMap.from_dict, m, d["P"])
        _known_keys(d["lambda"], _LAMBDA_KEYS, "lambda")
        lam = LambdaSpec.from_dict(d["lambda"])
        r = d.get("reaction")
        if r is not None and not isinstance(r, dict):
            raise InputError("reaction must be an object")
        reaction = None
        if r:
            general = "general" in r
            if general:
                if len(r) > 1 or not isinstance(r["general"], dict):
                    raise InputError("a general reaction takes no other key")
                r = r["general"]
                _known_keys(r, _GENERAL_KEYS, "general reaction")
            else:
                _known_keys(r, _REACTION_KEYS, "reaction")
            B = None if r.get("B") is None else _term_list(
                "B", MatrixPolynomial.from_dict, m, (m, 2 * m), r["B"])
            if general:
                f0 = None if r.get("f") is None else _term_list(
                    "f", PolynomialMap.from_dict, m, r["f"])
                reaction = GeneralReaction(m=m, B=B, f0=f0)
            else:
                G = None if r.get("G") is None else _term_list(
                    "G", MatrixPolynomial.from_dict, m, (m, m), r["G"])
                reaction = ReactionSpec(K=r["K"], B=B, G=G, kappa=r["kappa"],
                                        c0=r["c0"])
        return ModelSpec(P=P, lam=lam, reaction=reaction, C_f=d.get("C_f"),
                         name=d.get("name", ""))
    except (KeyError, TypeError, IndexError) as e:
        raise InputError(f"malformed model definition: {e}") from e


def save_model(path, spec):
    with open(path, "w") as fh:
        json.dump(model_to_dict(spec), fh, indent=2)


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
