"""Tests for the regression fitters and their optimality certificates."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from heavyreg import estimators
from heavyreg.convex import Loss, LossKind, RegKind, Regularizer
from heavyreg.errors import ConfigError
from heavyreg.estimators import (
    EstimatorConfig,
    FitResult,
    Resolvent,
    empirical_risk,
    fit_proximal,
)
from heavyreg.spectrum import _ar1_inverse

SQUARED = Loss(LossKind.SQUARED)
RIDGE = Regularizer(RegKind.RIDGE)
LASSO = Regularizer(RegKind.LASSO)
HUBER = Loss(LossKind.HUBER, 1.5)


def make_problem(n=60, p=12, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta_star = rng.standard_normal(p)
    y = x @ beta_star + noise * rng.standard_normal(n)
    return x, y, beta_star


class TestEstimatorConfig:
    """Validation of the solver settings."""

    def test_unknown_penalty_mode_is_rejected(self):
        # the penalty level is always explicit; no mode keyword is accepted
        with pytest.raises(TypeError):
            EstimatorConfig(SQUARED, RIDGE, lambda_mode="annealed")

    def test_nonpositive_penalty_weight_is_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(SQUARED, RIDGE, lambda_value=0.0)

    def test_empty_iteration_budget_is_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(SQUARED, RIDGE, max_iterations=0)


class TestResolvent:
    """The Gram matrix every fit goes through and the Cholesky solves on it,
    against explicit dense oracles."""

    def test_solve_matches_the_explicit_penalized_gram_system(self):
        x, _, _ = make_problem(n=60, p=12, seed=4)
        n, p = x.shape
        design = Resolvent.of(x)
        rhs = np.random.default_rng(5).standard_normal(p)
        for lam in (0.0, 1.0e-3, 1.0):
            expected = np.linalg.solve(x.T @ x / n + lam * np.eye(p), rhs)
            np.testing.assert_allclose(design.solve(rhs, lam), expected, rtol=1.0e-10, atol=1.0e-12)

    def test_solve_takes_a_block_of_right_hand_sides(self):
        x, _, _ = make_problem(n=60, p=12, seed=4)
        n, p = x.shape
        design = Resolvent.of(x)
        rhs = np.random.default_rng(5).standard_normal((p, 3))
        for lam in (0.0, 1.0e-3, 1.0):
            expected = np.linalg.solve(x.T @ x / n + lam * np.eye(p), rhs)
            np.testing.assert_allclose(design.solve(rhs, lam), expected, rtol=1.0e-10, atol=1.0e-12)

    def test_solve_takes_one_shift_per_column_of_a_block(self):
        for n, p in ((60, 12), (30, 50)):
            x, _, _ = make_problem(n=n, p=p, seed=6)
            design = Resolvent.of(x)
            rhs = np.random.default_rng(7).standard_normal((p, 4))
            shifts = np.array([1.0e-3, 0.1, 1.0, 1.0e3])
            sol = design.solve(rhs, shifts)
            for k, lam in enumerate(shifts):
                expected = np.linalg.solve(x.T @ x / n + lam * np.eye(p), rhs[:, k])
                np.testing.assert_allclose(sol[:, k], expected, rtol=1.0e-9, atol=1.0e-12)

    def test_scalar_shift_keeps_the_block_arithmetic(self):
        # a repeated per-column shift and the scalar one solve with the same
        # factor, and both are LAPACK's Cholesky solve of X'X/n + 0.3 I formed
        # here from the design, so all three agree bit for bit; a vector is
        # two triangular solves with that factor, bit for bit too
        x, _, _ = make_problem(n=60, p=12, seed=4)
        design = Resolvent.of(x)
        rhs = np.random.default_rng(5).standard_normal((12, 3))
        scalar = design.solve(rhs, 0.3)
        assert np.array_equal(design.solve(rhs, np.full(3, 0.3)), scalar)
        factor = scipy.linalg.cho_factor(x.T @ x / 60 + 0.3 * np.eye(12), lower=True)
        assert np.array_equal(scalar, scipy.linalg.cho_solve(factor, rhs))
        vector, trsv = rhs[:, 1], scipy.linalg.blas.dtrsv
        want = trsv(factor[0], trsv(factor[0], vector, lower=True), lower=True, trans=True)
        assert np.array_equal(design.solve(vector, 0.3), want)

    def test_keeps_only_the_last_shifts_factor(self):
        # a block factorizes its distinct shifts in ascending order, so the largest is kept
        x, _, _ = make_problem(n=60, p=12, seed=4)
        design = Resolvent.of(x)
        calls, potrf = [], scipy.linalg.lapack.dpotrf
        rhs = np.random.default_rng(5).standard_normal((12, 4))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scipy.linalg.lapack, "dpotrf", lambda *a, **k: calls.append(1) or potrf(*a, **k))
            design.solve(rhs, np.array([1.0, 0.0, 1.0, 0.5]))
            assert len(calls) == 3 and design._cholesky[0] == 1.0
            factor = design.cholesky(1.0)
            design.solve(rhs[:, 0], 1.0)
            assert len(calls) == 3 and design.cholesky(1.0) is factor  # reused, not formed again
        want = np.linalg.cholesky(x.T @ x / 60 + np.eye(12))
        np.testing.assert_allclose(np.tril(factor), want, rtol=0.0, atol=1.0e-14)

    def test_the_outlier_factor_frees_the_gram_matrix(self):
        # the Newton steps that read Y read only L and Y; G is formed again, to the bit, if asked for
        x, _, _ = make_problem(n=60, p=12, seed=4)
        design = Resolvent.of(x)
        gram = design.gram
        y = design.factor(0.1)
        assert design._gram[0] is None and design._cholesky[0] == 0.1
        np.testing.assert_allclose(y @ y.T, x @ np.linalg.solve(gram + 0.1 * np.eye(12), x.T), rtol=0.0, atol=1.0e-13)
        assert np.array_equal(design.gram, gram)

    def test_cholesky_of_an_indefinite_shift_raises(self):
        x, _, _ = make_problem(n=60, p=12, seed=4)
        with pytest.raises(np.linalg.LinAlgError):
            Resolvent.of(x).cholesky(-1.0e3)

    @pytest.mark.parametrize("p", (1, 2, 12))
    def test_a_white_draw_factors_and_solves_its_shifted_family(self, p):
        # G + s T with G = Z'Z/n and T the tridiagonal precision: the factor of the dense sum, and T's own products
        z = np.random.default_rng(9).standard_normal((60, p))
        diag, off = _ar1_inverse(p, -0.8)
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        white = Resolvent.of(z, (diag, off))
        rhs = np.random.default_rng(10).standard_normal((p, 3))
        for shift in (0.0, 1.0e-3, 1.0, 1.0e3):
            system = z.T @ z / 60 + shift * t
            np.testing.assert_allclose(np.tril(white.cholesky(shift)), np.linalg.cholesky(system), rtol=0.0,
                                       atol=1.0e-13 * np.abs(system).max())
            np.testing.assert_allclose(white.solve(rhs, shift), np.linalg.solve(system, rhs), rtol=1.0e-10)
            np.testing.assert_allclose(white.solve(rhs[:, 0], shift), np.linalg.solve(system, rhs[:, 0]), rtol=1.0e-10)
        for u in (rhs, rhs[:, 0]):  # a block and a vector
            np.testing.assert_allclose(white.t_product(u), t @ u, rtol=1.0e-14)
            np.testing.assert_allclose(white.t_solve(u), np.linalg.solve(t, u), rtol=1.0e-12)
            assert white.t_product(u).shape == white.t_solve(u).shape == u.shape
        design = Resolvent.of(z)
        assert design.t_product(rhs) is rhs and design.t_solve(rhs) is rhs  # T = I on a design

    def test_an_indefinite_precision_is_rejected(self):
        with pytest.raises(ConfigError, match="positive definite"):
            Resolvent.of(np.ones((3, 2)), (np.array([1.0, -1.0]), np.zeros(1)))

    def test_non_finite_or_non_matrix_designs_are_rejected(self):
        x, _, _ = make_problem()
        for bad in (np.nan, np.inf):
            corrupt = x.copy()
            corrupt[3, 2] = bad
            with pytest.raises(ConfigError):
                Resolvent.of(corrupt)
        with pytest.raises(ConfigError):
            Resolvent.of(x[0])


class TestGramSolve:
    """A closed-form block through :func:`_gram_solve`, on either kind of
    draw: a design ``X = Z Sigma^1/2``, whose family is ``X'X/n + s I``, or
    its white draw ``Z`` with the tridiagonal precision ``T = Sigma^-1``,
    whose family is ``Z'Z/n + s T`` and whose solution ``f = Sigma^1/2 e``
    solves the design's ``(X'X/n + s I) e = Sigma^1/2 r``.  Noise-adapted
    columns go through multi-shift conjugate gradients preconditioned by
    ``T``, the rest through one Cholesky factor of ``G + s T`` per shift,
    every column certified by its relative residual.  Right-hand sides have
    a noise-adapted ridge sweep's form: the seeds ``(v, d)`` with
    ``v = Z'w/n``, combined as ``sqrt(s) v - s d`` (and mapped through
    ``Sigma^1/2`` on the design)."""

    SHIFTS = np.array([1.0e-6, 1.0e-3, 0.1, 1.0, 10.0, 1.0e4])
    # Each tridiagonal precision T as (diagonal, off-diagonal); "spread" is
    # the diagonal precision of Sigma^1/2 = diag(linspace(0.3, 2, p)).
    PRECISIONS = {
        "ar1-0.5": lambda p: _ar1_inverse(p, 0.5),
        "ar1-minus-0.8": lambda p: _ar1_inverse(p, -0.8),
        "identity": lambda p: _ar1_inverse(p, 0.0),
        "spread": lambda p: (np.linspace(0.3, 2.0, p) ** -2.0, np.zeros(p - 1)),
    }
    # The design (of AR(1) 0.5) and the white draw under each precision.
    KINDS = ["design"] + [f"white-{name}" for name in PRECISIONS]

    @pytest.fixture
    def krylov(self, monkeypatch):
        """Every adapted block goes through conjugate gradients, however few its features."""
        monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 1)

    @dataclasses.dataclass
    class Block:
        design: Resolvent
        seeds: np.ndarray
        coefficients: np.ndarray
        z: np.ndarray  # the white draw
        root: np.ndarray  # Sigma^1/2
        white: bool

        @property
        def rhs(self):
            return estimators._right_hand_sides(self.seeds, self.coefficients)

        def solve(self, shifts=None, adapted=None, coefficients=None, seeds=None, design=None):
            """``_gram_solve`` of the block, every column adapted unless told
            otherwise: the solutions, certificates and fallback mask, once its
            converged mask is checked against the certificates."""
            shifts = TestGramSolve.SHIFTS if shifts is None else shifts
            sol, certificate, converged, fell_back = estimators._gram_solve(
                self.design if design is None else design, self.seeds if seeds is None else seeds,
                self.coefficients if coefficients is None else coefficients, shifts,
                np.ones(len(shifts), bool) if adapted is None else adapted)
            assert np.array_equal(converged, certificate <= estimators._CERTIFICATE)
            return sol, certificate, fell_back

        def residual(self, sol, shift, r):
            """``||(X'X/n + s I) e - b|| / ||b||`` densely, for the design's
            error ``e`` and right-hand side ``b``: on a white block
            ``e = Sigma^-1/2 f`` and ``b = Sigma^1/2 r``."""
            x = self.z @ self.root
            if self.white:
                sol, r = np.linalg.solve(self.root, sol), self.root @ r
            return np.linalg.norm(x.T @ (x @ sol) / x.shape[0] + shift * sol - r) / np.linalg.norm(r)

        def weight(self, r):
            """The design's 2-norm of a right-hand side: ``||Sigma^1/2 r||`` on a white block."""
            return np.linalg.norm(self.root @ r if self.white else r)

    @classmethod
    def make_block(cls, n, p, kind="white-ar1-0.5"):
        """The block of ``kind`` for the white draw ``Z`` (``n x p``), with
        the coefficients ``(sqrt(s), -s)`` of :attr:`SHIFTS`."""
        rng = np.random.default_rng(n + p)
        z = rng.standard_normal((n, p))
        v = z.T @ rng.standard_t(1.5, n) / n
        d = rng.standard_normal(p)
        diag, off = cls.PRECISIONS["ar1-0.5" if kind == "design" else kind.removeprefix("white-")](p)
        evals, evecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        half = (evecs * evals ** -0.5) @ evecs.T
        seeds, coefficients = np.stack([v, d], axis=1), np.stack([np.sqrt(cls.SHIFTS), -cls.SHIFTS])
        if kind == "design":
            return cls.Block(Resolvent.of(z @ half), half @ seeds, coefficients, z, half, False)
        return cls.Block(Resolvent.of(z, (diag, off)), seeds, coefficients, z, half, True)

    @staticmethod
    def krylov_steps(monkeypatch):
        """A log filled, per Krylov step, with the number of seeds multiplied into
        ``G + s_0 T``: the symmetric mat-vecs between two preconditioner solves."""
        log, steps = [], []
        symv, t_solve = scipy.linalg.blas.dsymv, Resolvent.t_solve
        monkeypatch.setattr(scipy.linalg.blas, "dsymv", lambda *a, **k: log.append(1) or symv(*a, **k))

        def solve(self, r):
            if log:
                steps.append(len(log))
                log.clear()
            return t_solve(self, r)

        monkeypatch.setattr(Resolvent, "t_solve", solve)
        return steps

    @staticmethod
    def calls(monkeypatch, module, name):
        """A log of the calls of ``module.name``, by the first argument's shape."""
        log, function = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, *args, **kw: log.append(a.shape) or function(a, *args, **kw))
        return log

    @staticmethod
    def exact_white_solve(block, r, shift):
        """``(Z'Z/n + s T)^-1 r`` to 30 digits, from the float inputs as given."""
        import mpmath

        diag, off = block.design.precision
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        with mpmath.workdps(30):
            z_mp = mpmath.matrix(block.z.tolist())
            system = z_mp.T * z_mp / block.z.shape[0] + mpmath.mpf(float(shift)) * mpmath.matrix(t.tolist())
            return np.array([float(v) for v in mpmath.lu_solve(system, mpmath.matrix(r.tolist()))])

    @pytest.mark.usefixtures("krylov")
    @pytest.mark.parametrize("precision", list(PRECISIONS))
    @pytest.mark.parametrize("n, p", [(200, 50), (40, 60), (60, 60), (800, 400)])
    def test_matches_the_eigenbasis_solve(self, precision, n, p):
        block = self.make_block(n, p, f"white-{precision}")
        sol, certificate, fell_back = block.solve()
        rhs = block.rhs
        x = block.z @ block.root
        gram = x.T @ x / n
        evals, evecs = np.linalg.eigh(gram)
        root = block.root
        for k, shift in enumerate(self.SHIFTS):
            system = gram + shift * np.eye(p)
            # A solve in doubles errs by up to eps * cond, the eigenbasis and LU as much as this one.
            # Where that allows 1e-10, both hold every column to it.  Where it does not (n < p at the
            # 1e-6 shift) the oracle is a 30-digit solve, held to 1e-9.  Every residual is 1e-10.
            if np.finfo(float).eps * np.linalg.cond(system) <= 1.0e-10:
                oracles, bound = (root @ evecs @ ((evecs.T @ root @ rhs[:, k]) / (evals + shift)),
                                  root @ np.linalg.solve(system, root @ rhs[:, k])), 1.0e-10
            else:
                oracles, bound = (self.exact_white_solve(block, rhs[:, k], shift),), 1.0e-9
            for want in oracles:
                assert np.linalg.norm(sol[:, k] - want) <= bound * np.linalg.norm(want)
            assert block.residual(sol[:, k], shift, rhs[:, k]) <= 1.0e-10
        assert np.all(certificate <= 1.0e-10)
        assert not fell_back[self.SHIFTS >= 1.0].any()  # conditioned within 5: conjugate gradients

    @pytest.mark.parametrize("n, p", [(300, 128), (800, 400)])
    def test_krylov_matches_the_whitened_solve_mapped_through_the_root(self, n, p):
        # the same iterates: f = Sigma^1/2 e for (Z'Z/n + s T) f = r and (G + s I) e = Sigma^1/2 r
        white = self.make_block(n, p)
        f, _, white_back = white.solve()
        sol, certificate, fell_back = self.make_block(n, p, "design").solve()
        assert not fell_back.any() and not white_back.any() and np.all(certificate <= 1.0e-10)
        for k in range(len(self.SHIFTS)):
            assert np.linalg.norm(white.root @ sol[:, k] - f[:, k]) <= 1.0e-12 * np.linalg.norm(f[:, k])

    @pytest.mark.parametrize("kind", ["design", "white-ar1-0.5"])
    def test_fixed_columns_take_one_cholesky_factor_per_shift(self, kind, monkeypatch):
        block = self.make_block(300, 128, kind)
        shifts = np.array([0.0, 0.1, 1.0e-12, 0.1, 1.0, 10.0])
        adapted = np.array([False, False, False, False, True, True])
        symv, potrf = scipy.linalg.blas.dsymv, scipy.linalg.lapack.dpotrf
        products, factors = [], []
        monkeypatch.setattr(scipy.linalg.blas, "dsymv", lambda *a, **k: products.append(1) or symv(*a, **k))
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda *a, **k: factors.append(a[0][0, 0]) or potrf(*a, **k))
        sol, certificate, fell_back = block.solve(shifts, adapted)
        assert len(factors) == 3 and products  # 0, 1e-12 and 0.1 factorized once each; 1 and 10 iterate
        assert not fell_back.any() and np.all(certificate <= 1.0e-10)
        rhs = block.rhs
        for k, shift in enumerate(shifts):
            if not adapted[k]:
                assert np.array_equal(sol[:, k], block.design.solve(rhs[:, k:k + 1], shift)[:, 0])
            # both at rounding level, formed in other orders (the stopped solve below matches them closely)
            assert certificate[k] == pytest.approx(block.residual(sol[:, k], shift, rhs[:, k]), rel=1.0e-6, abs=1.0e-13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_certificate_is_the_relative_residual_of_a_stopped_solve(self, kind, monkeypatch):
        # stopped at 1e-3, every column keeps a residual far above rounding
        monkeypatch.setattr(estimators, "_CG_TOL", 1.0e-3)
        monkeypatch.setattr(estimators, "_CERTIFICATE", 1.0)
        block = self.make_block(300, 128, kind)
        sol, certificate, fell_back = block.solve()
        assert not fell_back.any()
        for k, shift in enumerate(self.SHIFTS):
            rhs = block.rhs[:, k]
            residual = block.residual(sol[:, k], shift, rhs)
            # each seed's pair stops at 1e-3 of its seed, so the column at 1e-3 of the seeds' sum
            bound = sum(abs(c) * block.weight(seed) for c, seed in zip(block.coefficients[:, k], block.seeds.T))
            assert 1.0e-6 < residual <= 1.001e-3 * bound / block.weight(rhs)
            assert certificate[k] == pytest.approx(residual, rel=1.0e-8)

    @pytest.mark.usefixtures("krylov")
    @pytest.mark.parametrize("t", (1.0, 1.7), ids=("design", "white"))
    def test_one_feature_is_the_scalar_formula(self, t):
        # a 1 x 1 T: one Krylov step per seed solves every shift exactly
        rng = np.random.default_rng(3)
        z, seeds = rng.standard_normal((30, 1)), rng.standard_normal((1, 2))
        coefficients = rng.standard_normal((2, len(self.SHIFTS)))
        design = Resolvent.of(z) if t == 1.0 else Resolvent.of(z, (np.array([t]), np.empty(0)))
        sol, certificate, converged, fell_back = estimators._gram_solve(design, seeds, coefficients, self.SHIFTS,
                                                                        np.ones(len(self.SHIFTS), bool))
        want = (seeds @ coefficients)[0] / (z[:, 0] @ z[:, 0] / 30 + self.SHIFTS * t)
        np.testing.assert_allclose(sol[0], want, rtol=1.0e-13)
        assert not fell_back.any() and np.all(certificate <= 1.0e-10) and converged.all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_spent_budget_falls_back_to_cholesky(self, kind, monkeypatch):
        block = self.make_block(300, 128, kind)
        adapted = np.array([True, True, False, True, True, True])
        krylov, _, _ = block.solve(adapted=adapted)
        eighs = self.calls(monkeypatch, np.linalg, "eigh")
        monkeypatch.setattr(estimators, "_CG_BUDGET", 0)
        sol, certificate, fell_back = block.solve(adapted=adapted)
        assert np.array_equal(fell_back, adapted) and np.all(certificate <= 1.0e-10) and eighs == []
        assert np.array_equal(sol, block.design.solve(block.rhs, self.SHIFTS))  # no step taken: Cholesky wins
        assert np.all(np.linalg.norm(sol - krylov, axis=0) <= 1.0e-10 * np.linalg.norm(krylov, axis=0))

    @pytest.mark.usefixtures("krylov")
    def test_a_fallback_keeps_the_more_accurate_solve_at_a_tiny_shift(self):
        # AR(1) rho = -0.8, n < p, shift 1e-6 (cond(G + sI) = 1.3e7): conjugate gradients spend their budget at a
        # certificate of 1.4e-4, 1.8e-6 relative off the 30-digit solution; Cholesky of Z'Z/n + s T is certified
        block = self.make_block(40, 60, "white-ar1-minus-0.8")
        sol, certificate, fell_back = block.solve()
        assert fell_back[0] and certificate[0] <= 1.0e-10
        want = self.exact_white_solve(block, block.rhs[:, 0], self.SHIFTS[0])
        assert np.linalg.norm(sol[:, 0] - want) <= 1.0e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["design", "white-ar1-0.5"])
    def test_a_fallback_keeps_the_smaller_certificate(self, kind, monkeypatch):
        # at n = p the smallest shifts' solves miss the certificate and Cholesky wins them; at 1e4 the
        # Krylov solve has the smaller residual
        block = self.make_block(60, 60, kind)
        monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 1)
        monkeypatch.setattr(estimators, "_CERTIFICATE", np.inf)
        krylov, krylov_certificate, _ = block.solve()  # conjugate gradients alone
        monkeypatch.setattr(estimators, "_CG_BUDGET", 0)
        monkeypatch.setattr(estimators, "_CERTIFICATE", 0.0)
        direct, direct_certificate, _ = block.solve()  # no Krylov step: Cholesky alone, on the same block
        monkeypatch.undo()
        monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 1)
        monkeypatch.setattr(estimators, "_CERTIFICATE", 0.0)
        sol, certificate, fell_back = block.solve()  # every column falls back
        better = krylov_certificate < direct_certificate
        assert fell_back.all() and better.any() and not better.all()
        np.testing.assert_array_equal(certificate, np.minimum(krylov_certificate, direct_certificate))
        np.testing.assert_array_equal(sol, np.where(better, krylov, direct))

    @pytest.mark.parametrize("kind", KINDS)
    def test_few_features_are_solved_directly(self, kind, monkeypatch):
        # below the threshold no block iterates: a design factorizes each distinct shift, and a white draw
        # takes one eigh of B^-T (Z'Z/n) B^-1 for the whole block, reading no root of Sigma
        block = self.make_block(200, 50, kind)
        monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 1)
        krylov, _, _ = block.solve()
        monkeypatch.undo()
        eighs = self.calls(monkeypatch, np.linalg, "eigh")
        steps = self.krylov_steps(monkeypatch)
        sol, certificate, fell_back = block.solve()
        assert steps == [] and not fell_back.any() and np.all(certificate <= 1.0e-10)
        assert np.all(np.linalg.norm(sol - krylov, axis=0) <= 1.0e-10 * np.linalg.norm(krylov, axis=0))
        if not block.white:
            assert eighs == [] and np.array_equal(sol, block.design.solve(block.rhs, self.SHIFTS))
            return
        assert eighs == [(50, 50)]
        monkeypatch.setattr(estimators, "_KRYLOV_FEATURES", 50)
        block.solve()
        assert steps and eighs == [(50, 50)]  # from the threshold on, conjugate gradients
        block.solve(adapted=np.zeros(self.SHIFTS.size, bool))
        assert eighs == [(50, 50)]  # and Cholesky for the columns solved directly

    @pytest.mark.parametrize("n, p, precision", [(30, 1, "ar1-0.5"), (30, 2, "ar1-0.5"), (120, 40, "ar1-0.5"),
                                                  (120, 40, "ar1-minus-0.8"), (120, 40, "spread")])
    def test_small_white_block_matches_a_dense_solve(self, n, p, precision):
        # the eigh route of a white block: (Z'Z/n + s T) f = r, T = B'B with B = D^1/2 L' from pttrf's L D L'
        rng = np.random.default_rng(p)
        z, seeds = rng.standard_normal((n, p)), rng.standard_normal((p, 2))
        coefficients = np.stack([np.sqrt(self.SHIFTS), -self.SHIFTS])
        diag, off = self.PRECISIONS[precision](p) if p > 1 else (np.array([1.7]), np.empty(0))
        design = Resolvent.of(z, (diag, off))
        sol, certificate, converged, fell_back = estimators._gram_solve(design, seeds, coefficients, self.SHIFTS,
                                                                        np.ones(len(self.SHIFTS), bool))
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        for k, shift in enumerate(self.SHIFTS):
            want = np.linalg.solve(z.T @ z / n + shift * t, seeds @ coefficients[:, k])
            assert np.linalg.norm(sol[:, k] - want) <= 1.0e-12 * np.linalg.norm(want)
        assert converged.all() and not fell_back.any()

    @pytest.mark.usefixtures("krylov")
    @pytest.mark.parametrize("kind", ["design", "white-ar1-0.5"])
    def test_zero_right_hand_side_is_solved_exactly(self, kind):
        block = self.make_block(60, 12, kind)
        block.coefficients[:, 2] = 0.0
        sol, certificate, fell_back = block.solve()
        assert np.array_equal(sol[:, 2], np.zeros(12)) and certificate[2] == 0.0 and not fell_back[2]

    @pytest.mark.usefixtures("krylov")
    @pytest.mark.parametrize("kind", ["design", "white-ar1-0.5"])
    @pytest.mark.parametrize("zero", ("v", "d", "both"))
    def test_a_zero_seed_takes_no_steps(self, kind, zero, monkeypatch):
        # delta_norm = 0 makes the misalignment seed d zero; the noise seed v may be zero too
        block = self.make_block(200, 50, kind)
        block.seeds[:, {"v": [0], "d": [1], "both": [0, 1]}[zero]] = 0.0
        steps = self.krylov_steps(monkeypatch)
        sol, certificate, fell_back = block.solve()
        assert not fell_back.any() and np.all(certificate <= 1.0e-10)
        if zero == "both":
            assert steps == [] and np.array_equal(sol, np.zeros_like(sol)) and np.array_equal(certificate, np.zeros(6))
            return
        assert steps and set(steps) == {1}  # only the other seed iterates
        rhs = block.rhs
        for k, shift in enumerate(self.SHIFTS):
            assert block.residual(sol[:, k], shift, rhs[:, k]) <= 1.0e-10

    @pytest.mark.usefixtures("krylov")
    def test_a_zero_amplitude_leaves_the_other_seed(self):
        # a_k = 0 (the noiseless point): column k is -s_k d alone
        block = self.make_block(200, 50)
        block.coefficients[0, [0, 3]] = 0.0
        sol, certificate, fell_back = block.solve()
        alone, _, _ = block.solve(seeds=block.seeds[:, 1:], coefficients=block.coefficients[1:])
        np.testing.assert_allclose(sol[:, [0, 3]], alone[:, [0, 3]], rtol=1.0e-10, atol=0.0)
        assert not fell_back.any() and np.all(certificate <= 1.0e-10)

    @pytest.mark.usefixtures("krylov")
    def test_duplicate_shifts_give_equal_columns(self):
        # the smallest shift is the seeds' own (gap 0); each shift appears twice
        block = self.make_block(200, 50)
        shifts = np.array([1.0e-3, 0.1, 1.0e-3, 10.0, 0.1, 10.0])
        block.coefficients = np.stack([np.sqrt(shifts), -shifts])
        sol, certificate, fell_back = block.solve(shifts)
        for a, b in ((0, 2), (1, 4), (3, 5)):  # equal up to the blocking of the final product
            np.testing.assert_allclose(sol[:, a], sol[:, b], rtol=1.0e-14, atol=0.0)
        assert not fell_back.any() and np.all(certificate <= 1.0e-10)
        for k, shift in enumerate(shifts):
            assert block.residual(sol[:, k], shift, block.rhs[:, k]) <= 1.0e-10

    @pytest.mark.usefixtures("krylov")
    def test_one_column_block(self):
        block = self.make_block(200, 50)
        for k, shift in enumerate(self.SHIFTS):
            sol, certificate, fell_back = block.solve(self.SHIFTS[k:k + 1], coefficients=block.coefficients[:, k:k + 1])
            assert sol.shape == (50, 1) and not fell_back[0] and certificate[0] <= 1.0e-10
            assert block.residual(sol[:, 0], shift, block.rhs[:, k]) <= 1.0e-10

    @pytest.mark.usefixtures("krylov")
    @pytest.mark.parametrize("kind", ["design", "white-ar1-0.5"])
    def test_work_does_not_grow_with_the_number_of_shifts(self, kind, monkeypatch):
        block = self.make_block(200, 50, kind)
        steps = self.krylov_steps(monkeypatch)
        block.solve()
        whole = list(steps)
        steps.clear()
        block.solve(self.SHIFTS[:1], coefficients=block.coefficients[:, :1])
        assert whole == steps  # the six shifts take the steps of the smallest alone
        assert 0 < len(whole) < 50
        # column mat-vecs: seeds x steps.  On the white draw rounding, amplified by the recurrence, parts the
        # two seeds' residuals near the tolerance: one seed may step at most twice alone after the other.
        full = block.seeds.shape[1] * len(whole)
        trailing = 0 if kind == "design" else 2
        assert whole == sorted(whole, reverse=True) and full - trailing <= sum(whole) <= full


class TestNonFiniteInput:
    """Every fitter rejects a non-finite response, center or warm start
    instead of returning a NaN estimate or failing inside the iteration."""

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_response(self, bad):
        x, y, _ = make_problem(noise=1.0)
        design = Resolvent.of(x)
        y = y.copy()
        y[5] = bad
        for loss in (SQUARED, Loss(LossKind.HUBER, 1.5)):
            with pytest.raises(ConfigError):
                fit_proximal(EstimatorConfig(loss, RIDGE, 0.1), design, y)

    def test_proximal_center_and_warm_start(self):
        x, y, _ = make_problem(noise=1.0)
        design = Resolvent.of(x)
        nan_vector = np.full(x.shape[1], np.nan)
        with pytest.raises(ConfigError):
            fit_proximal(EstimatorConfig(SQUARED, LASSO, 0.1, center=nan_vector), design, y)
        with pytest.raises(ConfigError):
            fit_proximal(EstimatorConfig(SQUARED, LASSO, 0.1), design, y, x0=nan_vector)


class TestFitProximal:
    """The exact active-set Newton fit: squared or Huber loss with a ridge or
    lasso penalty, certified by its least-norm subgradient."""

    def test_matches_the_ridge_closed_form(self):
        x, y, _ = make_problem(n=100, p=40, seed=7, noise=1.0)
        config = EstimatorConfig(SQUARED, RIDGE, 0.3)
        design = Resolvent.of(x)
        newton = fit_proximal(config, design, y)
        exact = np.linalg.solve(x.T @ x / 100 + 0.3 * np.eye(40), x.T @ y / 100)
        assert newton.converged and newton.iterations == 1
        np.testing.assert_allclose(newton.beta_hat, exact, rtol=1.0e-12, atol=0.0)

    @pytest.mark.parametrize("seed", (3, 5))
    def test_a_full_step_that_ties_the_objective_is_taken(self, seed):
        # At noise 1e5 every residual is an outlier, so the fit is b = k X' sign(r) / (lam n) and the objective,
        # about 1.2e5, has a rounding unit of 1.5e-11.  A warm start 1.4e-6 off b is 1e-12 above b's objective,
        # while its gradient norm is 50 times the tolerance.  The full step to b computes an objective that ties
        # the warm start's (seed 3) or rounds just above it (seed 5); it must be taken and certified.
        x, y, _ = make_problem(n=200, p=20, seed=seed, noise=1.0e5)
        lam = 1.0
        config = EstimatorConfig(HUBER, RIDGE, lam)
        exact = 1.5 * x.T @ np.sign(y) / (lam * 200)
        r = y - x @ exact
        assert np.all(np.abs(r) > 1.5) and np.array_equal(np.sign(r), np.sign(y))  # every residual an outlier
        eps = np.sqrt(2.0e-12 / lam)  # the Hessian is lam I
        warm = exact + eps * np.eye(20)[0]

        def objective(b):
            return float(np.mean(HUBER.value(y - x @ b))) + lam * RIDGE.value(b)

        assert abs(objective(warm) - objective(exact)) <= 1.0e-15 * objective(exact)
        warm_gradient = np.linalg.norm(-x.T @ np.clip(y - x @ warm, -1.5, 1.5) / 200 + lam * warm)
        assert warm_gradient > 50 * config.gradient_map_tol * (1.0 + np.linalg.norm(warm))
        fit = fit_proximal(config, Resolvent.of(x), y, x0=warm)
        assert fit.converged and fit.iterations == 1
        np.testing.assert_allclose(fit.beta_hat, exact, rtol=1.0e-12, atol=0.0)

    def test_huber_recovers_noiseless_data(self):
        x, y, beta_star = make_problem(n=80, p=20, seed=11)
        config = EstimatorConfig(HUBER, RIDGE, 1.0e-12)
        fit = fit_proximal(config, Resolvent.of(x), y)
        assert fit.converged
        np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1.0e-8)

    @pytest.mark.parametrize("n, p, seed", ((100, 40, 9), (60, 90, 3), (800, 40, 1)))
    @pytest.mark.parametrize("noise", (1.0, 30.0))
    def test_huber_ridge_stationarity_holds_exactly(self, n, p, seed, noise):
        # lambda b = X' psi_k(y - X b) / n, whichever route solved the last pattern
        x, y, _ = make_problem(n=n, p=p, seed=seed, noise=noise)
        lam = 0.1
        fit = fit_proximal(EstimatorConfig(HUBER, RIDGE, lam), Resolvent.of(x), y)
        assert fit.converged
        psi = np.clip(y - x @ fit.beta_hat, -1.5, 1.5)
        lhs = lam * fit.beta_hat
        assert np.linalg.norm(lhs - x.T @ psi / n) <= 1.0e-12 * np.linalg.norm(lhs)

    def test_all_outliers_give_the_closed_form_top_of_sweep_fit(self):
        # once every residual exceeds k the fit is (k / (lam n)) X' sign(r)
        x, _, _ = make_problem(n=200, p=40, seed=31)
        n, lam, k = 200, 0.1, 1.5
        y = 1.0e6 * np.random.default_rng(32).standard_t(1.5, n)
        b_inf = k / (lam * n) * (x.T @ np.sign(y))
        assert np.all(np.abs(y - x @ b_inf) > k)
        config = EstimatorConfig(HUBER, RIDGE, lam)
        design = Resolvent.of(x)
        for start in (None, b_inf):
            fit = fit_proximal(config, design, y, x0=start)
            assert fit.converged
            np.testing.assert_allclose(fit.beta_hat, b_inf, rtol=1.0e-14, atol=0.0)
        assert fit.iterations <= 1

    def test_noiseless_lasso_at_the_penalty_floor_certifies(self):
        x, y, beta_star = make_problem(n=80, p=40, seed=19)
        center = beta_star + np.random.default_rng(20).standard_normal(40)
        config = EstimatorConfig(SQUARED, LASSO, 1.0e-12, center=center)
        fit = fit_proximal(config, Resolvent.of(x), y)
        assert fit.converged and fit.iterations <= 3
        np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1.0e-9)

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_wide_lasso_certifies(self, loss):
        # more features than rows: the support must shrink below n first
        x, y, _ = make_problem(n=30, p=60, seed=29, noise=3.0)
        fit = fit_proximal(EstimatorConfig(loss, LASSO, 0.05), Resolvent.of(x), y)
        assert fit.converged
        assert np.count_nonzero(fit.beta_hat) <= 30

    def test_a_lasso_newton_step_reads_its_signs_from_the_one_soft_threshold(self, monkeypatch):
        # the proximal-gradient point is prox_reg's, looked up on the estimators binding at call time, so a
        # wrapper there sees every call; a screened fit takes no step and calls it not at all
        calls, prox_reg = [], estimators.prox_reg
        monkeypatch.setattr(estimators, "prox_reg", lambda reg, eta, v: calls.append(eta) or prox_reg(reg, eta, v))
        x, y, _ = make_problem(n=100, p=40, seed=13, noise=2.0)
        fit = fit_proximal(EstimatorConfig(SQUARED, LASSO, 0.05), Resolvent.of(x), y)
        assert fit.converged and 0 < fit.iterations <= len(calls)
        calls.clear()
        assert fit_proximal(EstimatorConfig(SQUARED, LASSO, 1.0e9), Resolvent.of(x), y).iterations == 0
        assert calls == []

    @staticmethod
    def duplicated_column_problem():
        x, _, _ = make_problem(n=100, p=40, seed=3)
        x[:, 1] = x[:, 0]
        y = x @ np.random.default_rng(4).standard_normal(40) + np.random.default_rng(5).standard_normal(100)
        return x, y

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_lasso_with_a_duplicated_column_certifies(self, loss):
        # both copies free with one sign make the pattern's Cholesky fail
        x, y = self.duplicated_column_problem()
        fit = fit_proximal(EstimatorConfig(loss, LASSO, 1.0e-3), Resolvent.of(x), y)
        assert fit.converged

    def test_overwhelming_lasso_penalty_returns_the_center_exactly(self):
        x, y, _ = make_problem(noise=1.0)
        beta0 = np.linspace(0.0, 1.0, x.shape[1])
        config = EstimatorConfig(SQUARED, LASSO, 1.0e9, center=beta0)
        fit = fit_proximal(config, Resolvent.of(x), y, x0=beta0 + 1.0)
        assert fit.converged and fit.iterations == 0
        assert np.array_equal(fit.beta_hat, beta0)

    def test_nonsmooth_losses_are_rejected(self):
        x, y, _ = make_problem()
        for kind in (LossKind.ABSOLUTE, LossKind.QUANTILE):
            loss = Loss(kind, 0.3) if kind is LossKind.QUANTILE else Loss(kind)
            with pytest.raises(ConfigError):
                fit_proximal(EstimatorConfig(loss, RIDGE), Resolvent.of(x), y)

    @pytest.mark.parametrize("loss, reg", ((Loss(LossKind.LOGCOSH), RIDGE), (SQUARED, None),
                                           (HUBER, Regularizer(RegKind.ELASTIC_NET, 0.5))),
                             ids=("logcosh", "no_penalty", "elastic_net"))
    def test_pairs_outside_the_piecewise_quadratic_family_are_rejected(self, loss, reg):
        x, y, _ = make_problem()
        with pytest.raises(ConfigError):
            fit_proximal(EstimatorConfig(loss, reg), Resolvent.of(x), y)

    def test_exhausted_budget_reports_nonconvergence_without_raising(self):
        x, y, _ = make_problem(n=100, p=40, seed=5, noise=3.0)
        design = Resolvent.of(x)
        full = fit_proximal(EstimatorConfig(HUBER, RIDGE, 0.1), design, y)
        assert full.converged and full.iterations >= 3
        fit = fit_proximal(EstimatorConfig(HUBER, RIDGE, 0.1, max_iterations=1), design, y)
        assert not fit.converged
        assert fit.iterations == 1

    def test_objective_trace_is_monotone_up_to_slack(self):
        # the fit stopped after j steps is the method's j-th iterate
        x, y, _ = make_problem(n=100, p=40, seed=13, noise=2.0)
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        design = Resolvent.of(x)
        final = fit_proximal(config, design, y)
        trace = np.array([fit_proximal(dataclasses.replace(config, max_iterations=j), design, y).objective
                          for j in range(1, final.iterations + 1)])
        assert trace[-1] == final.objective
        slack = 1.0e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(trace[1:] <= trace[:-1] + slack)

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    @pytest.mark.parametrize("reg", (RIDGE, LASSO), ids=("ridge", "lasso"))
    def test_fixed_step_never_increases_the_objective(self, loss, reg):
        # every step keeps the objective from rising -- a ridge step to the
        # minimum along its ray, a lasso step full or halved -- for wide and
        # tall designs alike and whether or not the fit certifies
        for n, p, seed in ((100, 40, 23), (30, 60, 29)):
            x, y, _ = make_problem(n=n, p=p, seed=seed, noise=3.0)
            design = Resolvent.of(x)
            for lam in (1.0e-12, 1.0e-3, 0.05, 1.0e9):
                trace = np.array([fit_proximal(EstimatorConfig(loss, reg, lam, max_iterations=j), design, y).objective
                                  for j in range(1, 9)])
                assert np.all(np.isfinite(trace))
                assert np.all(trace[1:] <= trace[:-1] + 1.0e-12 * np.abs(trace[:-1]))

    def test_warm_start_reuses_the_previous_solution(self):
        x, y, _ = make_problem(n=100, p=40, seed=9, noise=1.0)
        config = EstimatorConfig(HUBER, RIDGE, 0.1)
        design = Resolvent.of(x)
        cold = fit_proximal(config, design, y)
        warm = fit_proximal(config, design, y, x0=cold.beta_hat)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        assert warm.iterations <= 2

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_no_fit_reads_an_eigenvalue(self, loss, monkeypatch):
        # the lasso backtracks its curvature and every certificate is a subgradient, so no eigh runs
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_proximal called eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
        x, y, _ = make_problem(n=100, p=40, seed=13, noise=5.0)
        design = Resolvent.of(x)
        for reg, lam in ((RIDGE, 1.0e-3), (RIDGE, 0.05), (RIDGE, 0.1), (RIDGE, 10.0), (LASSO, 0.05)):
            assert fit_proximal(EstimatorConfig(loss, reg, lam), design, y).converged
        wide, y_wide, _ = make_problem(n=30, p=60, seed=29, noise=3.0)
        assert fit_proximal(EstimatorConfig(loss, LASSO, 0.05), Resolvent.of(wide), y_wide).converged
        duplicated, y_duplicated = self.duplicated_column_problem()
        assert fit_proximal(EstimatorConfig(loss, LASSO, 1.0e-3), Resolvent.of(duplicated), y_duplicated).converged

    @pytest.mark.parametrize("n, p", ((100, 40), (30, 60)), ids=("tall", "wide"))
    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_lasso_certificate_is_the_least_norm_subgradient(self, n, p, loss):
        # at every iterate: g + lam s over the subdifferential lam [-1, 1] of a zero coordinate, projected to
        # its least norm; never below the gradient map at the step 1 / lambda_max(X'X/n)
        x, y, _ = make_problem(n=n, p=p, seed=29, noise=3.0)
        lam, center = 0.05, np.linspace(-0.5, 0.5, p)
        config = EstimatorConfig(loss, LASSO, lam, center=center)
        design = Resolvent.of(x)
        step = 1.0 / np.linalg.eigvalsh(x.T @ x / n)[-1]
        final = fit_proximal(config, design, y)
        assert final.converged and final.iterations >= 3
        for j in range(1, final.iterations + 1):
            fit = fit_proximal(dataclasses.replace(config, max_iterations=j), design, y)
            d = fit.beta_hat - center
            g = -x.T @ loss.derivative(y - x @ fit.beta_hat) / n
            s = np.array([np.sign(dj) if dj != 0.0 else np.clip(-gj / lam, -1.0, 1.0) for dj, gj in zip(d, g)])
            assert fit.gradient_map_norm == pytest.approx(np.linalg.norm(g + lam * s), rel=1.0e-9, abs=1.0e-13)
            u = d - step * g
            mapped = np.sign(u) * np.maximum(np.abs(u) - step * lam, 0.0)
            assert fit.gradient_map_norm >= np.linalg.norm(d - mapped) / step * (1.0 - 1.0e-12) - 1.0e-13

    @staticmethod
    def descent_case(name):
        """Design, response, warm start and penalty.  ``diagonal`` has ``X'X/n = diag(1, 100)`` and a warm start
        ``(0, 1/2)`` whose gradient ``(-a, 0)``, ``a = 1 + 1e-4``, has curvature 1; at the step 1 the
        proximal-gradient point ``(1e-4, 0)`` moves the second coordinate too, along curvature 100, and lies
        about 12 above the start."""
        if name == "diagonal":
            x = np.sqrt(2.0) * np.diag([1.0, 10.0])
            return x, np.sqrt(2.0) * np.array([1.0 + 1.0e-4, 5.0]), np.array([0.0, 0.5]), 1.0
        x, y, _ = make_problem(*{"tall": (100, 40), "wide": (30, 60)}[name], seed=29, noise=3.0)
        return x, y, None, 0.05

    @pytest.mark.parametrize("name", ("tall", "wide", "diagonal"))
    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_the_proximal_gradient_point_never_rises_above_the_iterate(self, name, loss, monkeypatch):
        # the backtracked L satisfies the descent lemma, so step j's proximal-gradient point, the anchor its
        # pattern solve receives, is no higher than iterate j - 1 (the start for j = 1)
        x, y, x0, lam = self.descent_case(name)
        design = Resolvent.of(x)

        def objective(b):
            return float(np.mean(loss.value(y - x @ b))) + lam * LASSO.value(b)

        config = EstimatorConfig(loss, LASSO, lam)
        before = [objective(np.zeros(x.shape[1]) if x0 is None else x0)]
        before += [fit_proximal(dataclasses.replace(config, max_iterations=j), design, y, x0).objective
                   for j in range(1, 30)]
        solve, anchors = estimators._pattern_solve, []

        def record(*args):
            if not anchors or not np.array_equal(args[6], anchors[-1]):  # a retry solves at the same anchor
                anchors.append(args[6].copy())
            return solve(*args)

        monkeypatch.setattr(estimators, "_pattern_solve", record)
        fit = fit_proximal(dataclasses.replace(config, max_iterations=30), design, y, x0)
        assert len(anchors) == fit.iterations >= 1
        for f, anchor in zip(before, anchors):
            assert objective(anchor) <= f + 1.0e-12 * abs(f)

    def test_a_lasso_warm_start_with_a_zero_gradient_steps(self):
        # an integer design and response fit exactly by the warm start: the first gradient is 0, so L has no
        # Rayleigh quotient to start from
        rng = np.random.default_rng(6)
        x = rng.integers(-3, 4, size=(50, 10)).astype(float)
        b = rng.integers(-3, 4, size=10).astype(float)
        y = x @ b
        assert not (x.T @ (y - x @ b)).any()
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        warm = fit_proximal(config, Resolvent.of(x), y, x0=b)
        cold = fit_proximal(config, Resolvent.of(x), y)
        assert warm.converged and warm.iterations >= 1
        np.testing.assert_allclose(warm.beta_hat, cold.beta_hat, rtol=0.0, atol=1.0e-12)

    @pytest.mark.parametrize("n, p", ((100, 40), (200, 20), (400, 100)))
    def test_every_strongly_convex_lasso_fit_converges(self, n, p):
        # n > p: X'X/n is positive definite, so each pattern's system is too and the fit is unique
        for seed in (13, 29, 3, 7):
            for noise in (0.0, 1.0, 5.0, 30.0):
                x, y, _ = make_problem(n=n, p=p, seed=seed, noise=noise)
                design = Resolvent.of(x)
                for loss in (SQUARED, HUBER):
                    for lam in (1.0e-12, 1.0e-3, 0.05, 0.5):
                        fit = fit_proximal(EstimatorConfig(loss, LASSO, lam), design, y)
                        assert fit.converged, (seed, noise, loss.kind, lam, fit.iterations)

    def test_ridge_certificate_is_the_gradient_norm(self):
        # ||-X' psi(y - X b) / n + lam (b - b0)|| at every iterate, not the gradient map at step 1/L
        x, y, _ = make_problem(n=100, p=40, seed=5, noise=3.0)
        center = np.linspace(-1.0, 1.0, 40)
        design = Resolvent.of(x)
        for loss in (SQUARED, HUBER):
            config = EstimatorConfig(loss, RIDGE, 0.1, center=center)
            final = fit_proximal(config, design, y)
            assert final.converged
            for j in range(1, final.iterations + 1):
                fit = fit_proximal(dataclasses.replace(config, max_iterations=j), design, y)
                grad = -x.T @ loss.derivative(y - x @ fit.beta_hat) / 100 + 0.1 * (fit.beta_hat - center)
                assert fit.gradient_map_norm == pytest.approx(np.linalg.norm(grad), rel=1.0e-9, abs=1.0e-13)
        assert final.iterations >= 3 and not fit_proximal(dataclasses.replace(config, max_iterations=1),
                                                          design, y).converged

    def test_a_failed_ridge_pattern_retries_with_the_proximal_term(self, monkeypatch):
        # the retry's weight is mu = 1e-6 trace(X'X/n) / p = 1e-6 ||X||_F^2 / (n p)
        x, y, _ = make_problem(n=100, p=40, seed=5, noise=3.0)
        design = Resolvent.of(x)
        plain = fit_proximal(EstimatorConfig(HUBER, RIDGE, 0.1), design, y)
        solve, mus = estimators._pattern_solve, []

        def fail_once(*args):
            mus.append(args[-1])
            if len(mus) == 1:
                raise np.linalg.LinAlgError("forced")
            return solve(*args)

        monkeypatch.setattr(estimators, "_pattern_solve", fail_once)
        fit = fit_proximal(EstimatorConfig(HUBER, RIDGE, 0.1), design, y)
        assert fit.converged
        assert mus[0] == 0.0 and mus[1] == pytest.approx(1.0e-6 * np.trace(x.T @ x) / (100 * 40), rel=1.0e-13)
        assert not any(mus[2:])
        np.testing.assert_allclose(fit.beta_hat, plain.beta_hat, rtol=0.0, atol=1.0e-12)

    @staticmethod
    def white_and_design(n=200, p=60, rho=0.5, seed=1):
        """``(Z, Sigma^1/2, beta, noise)`` for a white draw ``Z`` of the AR(1) covariance, whose design is
        ``X = Z Sigma^1/2``."""
        from heavyreg.spectrum import CovarianceModel, decompose

        rng = np.random.default_rng(seed)
        root = decompose(CovarianceModel.ar1(p, rho)).sqrt_matrix()
        return rng.standard_normal((n, p)), root, rng.standard_normal(p), rng.standard_t(1.5, n)

    @pytest.mark.parametrize("route", ("outliers", "inliers", "cholesky"))
    @pytest.mark.parametrize("loss, noise", ((HUBER, 0.0), (HUBER, 3.0), (HUBER, 30.0), (HUBER, 1.0e4),
                                             (SQUARED, 3.0)), ids=("huber-0", "huber-3", "huber-30", "huber-1e4",
                                                                   "squared-3"))
    def test_a_white_ridge_fit_is_the_design_fit_through_the_root(self, route, loss, noise, monkeypatch):
        # on Z with T = Sigma^-1 the fit is theta = Sigma^1/2 beta of the fit on X = Z Sigma^1/2: the penalty
        # (lam/2) theta'T theta is (lam/2) ||beta||^2, and the certificate and its tolerance are the design's
        costs = estimators._route_costs
        monkeypatch.setattr(estimators, "_route_costs", lambda *args: {route: costs(*args)[route]})
        z, root, beta, w = self.white_and_design()
        x, center = z @ root, np.linspace(-0.5, 0.5, z.shape[1])
        white = Resolvent.of(z, _ar1_inverse(z.shape[1], 0.5))
        y = x @ beta + noise * w
        design_fit = fit_proximal(EstimatorConfig(loss, RIDGE, 0.1, center=center), Resolvent.of(x), y)
        white_fit = fit_proximal(EstimatorConfig(loss, RIDGE, 0.1, center=root @ center), white, y)
        assert design_fit.converged and white_fit.converged
        assert white_fit.iterations == design_fit.iterations >= 1
        want = root @ design_fit.beta_hat
        assert np.max(np.abs(white_fit.beta_hat - want)) <= 1.0e-10 * np.max(np.abs(want))
        assert white_fit.objective == pytest.approx(design_fit.objective, rel=1.0e-12)
        tol = 1.0e-12 * (1.0 + np.linalg.norm(design_fit.beta_hat))
        assert abs(white_fit.gradient_map_norm - design_fit.gradient_map_norm) <= tol

    @pytest.mark.parametrize("loss", (SQUARED, HUBER), ids=("squared", "huber"))
    def test_a_lasso_on_a_white_draw_is_rejected(self, loss):
        z, _, _, w = self.white_and_design()
        white = Resolvent.of(z, _ar1_inverse(z.shape[1], 0.5))
        with pytest.raises(ConfigError, match="lasso"):
            fit_proximal(EstimatorConfig(loss, LASSO, 0.1), white, w)

    def test_converged_fit_carries_a_valid_certificate(self):
        x, y, _ = make_problem(n=100, p=40, seed=21, noise=1.0)
        config = EstimatorConfig(SQUARED, LASSO, 0.05)
        fit = fit_proximal(config, Resolvent.of(x), y)
        assert fit.converged
        bound = config.gradient_map_tol * (1.0 + np.linalg.norm(fit.beta_hat))
        assert fit.gradient_map_norm <= bound

    def test_lasso_stationarity_via_subgradient(self):
        x, y, _ = make_problem(n=100, p=40, seed=17, noise=1.0)
        lam = 0.05
        config = EstimatorConfig(SQUARED, LASSO, lam, gradient_map_tol=1.0e-10)
        fit = fit_proximal(config, Resolvent.of(x), y)
        grad = -(x.T @ (y - x @ fit.beta_hat)) / x.shape[0]
        active = np.abs(fit.beta_hat) > 1.0e-12
        # active coordinates: gradient + lam * sign = 0; inactive: |gradient| <= lam
        assert np.max(np.abs(grad[active] + lam * np.sign(fit.beta_hat[active]))) <= 1.0e-7
        assert np.max(np.abs(grad[~active])) <= lam + 1.0e-7


class TestRayMinimum:
    """The exact line search of a ridge step, the minimizer ``t* >= 0`` of
    ``phi(t) = mean(huber_k(r - t delta)) + slope t + curvature t^2 / 2``,
    against an oracle that takes the root of ``phi'`` on every segment
    between its breakpoints."""

    K = 1.5

    @classmethod
    def derivative(cls, r, delta, slope, curvature, t):
        """``phi'(t)``."""
        return slope + curvature * t - np.clip(r - t * delta, -cls.K, cls.K) @ delta / r.size

    @classmethod
    def oracle(cls, r, delta, slope, curvature):
        """The root of ``phi'``, by enumerating every breakpoint ``t > 0``:
        ``phi'`` is linear between two of them and past the last one."""
        moving = delta != 0.0
        knots = np.concatenate([(r[moving] - cls.K) / delta[moving], (r[moving] + cls.K) / delta[moving]])
        knots = np.unique(np.concatenate([[0.0], knots[knots > 0.0]]))
        knots = np.append(knots, knots[-1] + 1.0)
        g = [cls.derivative(r, delta, slope, curvature, t) for t in knots]
        if g[0] >= 0.0:
            return 0.0
        for a, b, g_a, g_b in zip(knots[:-1], knots[1:], g[:-1], g[1:]):
            if g_b >= 0.0 or b == knots[-1]:
                return a - g_a * (b - a) / (g_b - g_a)

    @classmethod
    def slope_for(cls, r, delta, descent):
        """The slope at which ``phi'(0) = -descent``."""
        return np.clip(r, -cls.K, cls.K) @ delta / r.size - descent

    @staticmethod
    def evaluations(monkeypatch):
        """A list that gains an entry per evaluation of ``phi'`` (each reads one piece)."""
        sides, calls = estimators._sides, []
        monkeypatch.setattr(estimators, "_sides", lambda z, k: calls.append(1) or sides(z, k))
        return calls

    def search(self, r, delta, slope, curvature, solved=None):
        t, z = estimators._ray_minimum(r, delta, self.K, slope, curvature, solved)
        assert np.array_equal(z, r - t * delta)
        return t

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_oracle(self, seed):
        # a tenth of delta is zero, and the roots spread from well below 1 to well above it (8 of 24 above)
        rng = np.random.default_rng(seed)
        r = 3.0 * rng.standard_normal(300)
        delta = rng.standard_normal(300) * (rng.uniform(size=300) > 0.1)
        curvature = 10.0 ** rng.uniform(-3.0, 1.0)
        slope = self.slope_for(r, delta, 10.0 ** rng.uniform(-2.0, 1.0))
        t = self.search(r, delta, slope, curvature)
        assert t == pytest.approx(self.oracle(r, delta, slope, curvature), rel=1.0e-12, abs=0.0)

    def test_a_full_step_on_its_own_pattern_is_taken_at_once(self, monkeypatch):
        # every residual stays an inlier on [0, 1], where the all-inlier line's root is t = 1
        rng = np.random.default_rng(3)
        r, delta = rng.uniform(-0.7, 0.7, 100), rng.uniform(-0.7, 0.7, 100)
        curvature = 0.3
        slope = (r - delta) @ delta / 100 - curvature
        assert self.oracle(r, delta, slope, curvature) == pytest.approx(1.0, rel=1.0e-14)
        calls = self.evaluations(monkeypatch)
        assert self.search(r, delta, slope, curvature, solved=np.zeros(100)) == 1.0 and len(calls) == 1
        assert self.search(r, delta, slope, curvature) == pytest.approx(1.0, rel=1.0e-14)

    def test_all_outliers_give_the_root_of_one_line(self, monkeypatch):
        # |r - t delta| > k on [0, 9]: phi' = slope + curvature t - k mean(sign(r) delta), root 2.5
        rng = np.random.default_rng(4)
        r = rng.choice([-1.0, 1.0], 100) * rng.uniform(10.0, 20.0, 100)
        delta = rng.uniform(-1.0, 1.0, 100)
        curvature = 0.4
        slope = self.K * np.sign(r) @ delta / 100 - 2.5 * curvature
        calls = self.evaluations(monkeypatch)
        t = self.search(r, delta, slope, curvature)
        assert t == pytest.approx(2.5, rel=1.0e-14) and len(calls) == 2
        assert t == pytest.approx(self.oracle(r, delta, slope, curvature), rel=1.0e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_a_root_at_a_breakpoint(self, seed):
        # phi'(b) = 0 where residual i enters the band, so phi' changes slope at its root
        rng = np.random.default_rng(seed)
        r, delta = 3.0 * rng.standard_normal(200), rng.standard_normal(200)
        i = np.flatnonzero((delta > 0.1) & (r > self.K + 0.5))[0]
        b = (r[i] - self.K) / delta[i]
        curvature = 0.05
        slope = np.clip(r - b * delta, -self.K, self.K) @ delta / 200 - curvature * b
        assert self.derivative(r, delta, slope, curvature, 0.0) < 0.0
        assert self.oracle(r, delta, slope, curvature) == pytest.approx(b, rel=1.0e-12)
        assert self.search(r, delta, slope, curvature) == pytest.approx(b, rel=1.0e-12)

    def test_zero_entries_of_delta_leave_their_residuals(self):
        # half of delta is zero, on inliers and outliers alike; with all of it zero phi' is one line
        rng = np.random.default_rng(5)
        r = 3.0 * rng.standard_normal(200)
        delta = np.where(np.arange(200) % 2 == 0, 0.0, rng.standard_normal(200))
        slope = self.slope_for(r, delta, 0.5)
        assert self.search(r, delta, slope, 0.2) == pytest.approx(self.oracle(r, delta, slope, 0.2), rel=1.0e-12)
        assert self.search(r, np.zeros(200), -0.6, 0.2) == pytest.approx(3.0, rel=1.0e-15)

    def test_no_descent_stays_at_zero(self):
        rng = np.random.default_rng(6)
        r, delta = 3.0 * rng.standard_normal(100), rng.standard_normal(100)
        for slope in (self.slope_for(r, delta, 0.0), self.slope_for(r, delta, -1.0)):  # phi'(0) = 0 and 1
            assert self.search(r, delta, slope, 0.3) == 0.0


class TestPatternSolve:
    """The exact routes of one Newton pattern and the Cholesky solve under them."""

    ROUTES = ("outliers", "inliers", "cholesky")

    @staticmethod
    def ridge_pattern(n, p, o):
        """A Huber-ridge pattern of ``o`` signed outliers among ``n`` rows."""
        x, y, _ = make_problem(n=n, p=p, seed=n + o, noise=3.0)
        rng = np.random.default_rng(o)
        outlier = np.zeros(n)
        outlier[rng.choice(n, o, replace=False)] = rng.choice([-1.0, 1.0], o)
        return Resolvent.of(x), y, outlier

    @pytest.mark.parametrize("n, p", [(80, 30), (30, 80)])
    @pytest.mark.parametrize("outliers", ["none", "one", "half", "all but one", "all"])
    @pytest.mark.parametrize("mu", [0.0, 0.05])
    @pytest.mark.parametrize("gather", [7, 128])
    def test_the_factor_route_matches_the_inlier_and_cholesky_routes(self, n, p, outliers, mu, gather, monkeypatch):
        monkeypatch.setattr(estimators, "_GATHER_COLUMNS", gather)  # 7: the capacitance in 5 or 12 column blocks
        o = {"none": 0, "one": 1, "half": n // 2, "all but one": n - 1, "all": n}[outliers]
        design, y, outlier = self.ridge_pattern(n, p, o)
        anchor = np.random.default_rng(1).standard_normal(p)
        costs = estimators._route_costs
        solutions = {}
        for route in self.ROUTES:  # each route alone, as if it were the cheapest
            monkeypatch.setattr(estimators, "_route_costs", lambda *args, route=route: {route: costs(*args)[route]})
            solutions[route] = estimators._pattern_solve(design, y, 1.5, outlier, None, 0.1, anchor, mu)
        want = solutions["outliers"]
        for route in ("inliers", "cholesky"):
            assert np.linalg.norm(solutions[route] - want) <= 1.0e-12 * np.linalg.norm(want)
        # the pattern's own system, densely: (X_I'X_I/n + s I) b = X'v/n + mu anchor
        x, inlier = design.x, outlier == 0.0
        rhs = x.T @ np.where(inlier, y, 1.5 * outlier) / n + mu * anchor
        dense = np.linalg.solve(x[inlier].T @ x[inlier] / n + (0.1 + mu) * np.eye(p), rhs)
        assert np.linalg.norm(dense - want) <= 1.0e-12 * np.linalg.norm(dense)
        assert (design._factor[0] is None) == (o == 0)  # formed only for a correction

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("o", [0, 60, 199])
    @pytest.mark.parametrize("mu", [0.0, 0.05])
    def test_a_white_ridge_pattern_is_the_design_pattern_through_the_root(self, route, o, mu, monkeypatch):
        # on Z with T = Sigma^-1 each route solves (Z_I'Z_I/n + s T) theta = Z'v/n + mu T anchor, which is
        # Sigma^1/2 times the pattern's solve on X = Z Sigma^1/2, the anchor mapped through Sigma^1/2 too
        costs = estimators._route_costs
        monkeypatch.setattr(estimators, "_route_costs", lambda *args: {route: costs(*args)[route]})
        z, root, beta, w = TestFitProximal.white_and_design()
        n, p = z.shape
        x, rng = z @ root, np.random.default_rng(o)
        outlier = np.zeros(n)
        outlier[rng.choice(n, o, replace=False)] = rng.choice([-1.0, 1.0], o)
        anchor, y = rng.standard_normal(p), x @ beta + 3.0 * w
        white = Resolvent.of(z, _ar1_inverse(p, 0.5))
        theta = estimators._pattern_solve(white, y, 1.5, outlier, None, 0.1, root @ anchor, mu)
        want = root @ estimators._pattern_solve(Resolvent.of(x), y, 1.5, outlier, None, 0.1, anchor, mu)
        assert np.linalg.norm(theta - want) <= 1.0e-11 * np.linalg.norm(want)

    @pytest.mark.parametrize("o", [1, 20, 40])
    def test_a_lasso_pattern_with_outliers_and_no_shift_matches_a_dense_solve(self, o):
        # every coordinate free and mu = 0: s = 0, so the table offers only the Cholesky route,
        # whose pattern system is conditioned up to 166 (at o = 40)
        design, y, outlier = self.ridge_pattern(80, 30, o)
        sign = np.random.default_rng(2).choice([-1.0, 1.0], 30)
        assert list(estimators._route_costs(design, 80 - o, 30, 0.0)) == ["cholesky"]
        b = estimators._pattern_solve(design, y, 1.5, outlier, sign, 0.1, np.zeros(30), 0.0)
        x, inlier = design.x, outlier == 0.0
        rhs = x.T @ np.where(inlier, y, 1.5 * outlier) / 80 - 0.1 * sign
        dense = np.linalg.solve(x[inlier].T @ x[inlier] / 80, rhs)
        assert np.linalg.norm(b - dense) <= 1.0e-12 * np.linalg.norm(dense)
        assert design._factor[0] is None  # no Y formed

    @staticmethod
    def no_shift_design(gram):
        """An 80 x 30 design whose Gram matrix is well conditioned, singular
        (a duplicated column of signs, so ``potrf`` meets an exact zero pivot),
        or conditioned at 1e13."""
        n, p = 80, 30
        rng = np.random.default_rng(9)
        x = rng.standard_normal((n, p))
        if gram == "duplicated column":
            x[:, 0] = x[:, 1] = rng.choice([-1.0, 1.0], n)
        elif gram == "condition 1e13":
            rows, _ = np.linalg.qr(x)
            basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
            evals = np.geomspace(1.0, 1.0e-13, p)
            x = (rows * np.sqrt(n * evals)) @ basis.T  # X'X/n = V diag(evals) V'
        return Resolvent.of(x)

    @pytest.mark.parametrize("gram", ["well conditioned", "duplicated column", "condition 1e13"])
    def test_with_no_shift_the_factor_route_serves_only_a_pattern_with_no_outliers(self, gram, monkeypatch):
        # the pattern with no outliers is X'X/n itself, which the factor route solves with no condition estimate
        estimates = TestGramSolve.calls(monkeypatch, scipy.linalg.lapack, "dpocon")
        design = self.no_shift_design(gram)
        for m in (80, 79, 70, 0):
            assert ("outliers" in estimators._route_costs(design, m, 30, 0.0)) is (m == 80)
            assert "outliers" in estimators._route_costs(design, m, 30, 0.1)
        assert estimates == [] and design._cholesky[0] is None  # the table factors nothing

    def test_no_shift_and_no_outliers_on_a_singular_gram_matrix_raise(self):
        # as the Cholesky route does, so fit_proximal retries the pattern with its proximal term
        design = self.no_shift_design("duplicated column")
        sign, anchor, inlier = np.ones(30), np.zeros(30), np.zeros(80)
        y = np.random.default_rng(1).standard_normal(80)
        costs = estimators._route_costs(design, 80, 30, 0.0)
        assert min(costs, key=costs.get) == "outliers"
        with pytest.raises(np.linalg.LinAlgError):
            estimators._pattern_solve(design, y, 1.5, inlier, sign, 0.1, anchor, 0.0)
        x = design.x
        with pytest.raises(np.linalg.LinAlgError):
            estimators._spd_solve(x.T @ x / 80, x.T @ y / 80 - 0.1 * sign)  # the Cholesky route's own factor

    def test_a_huber_sweep_forms_the_factor_once(self, monkeypatch):
        # a 12-point scale sweep at one penalty, warm-started as the experiments run it
        x, _, beta_star = make_problem(n=200, p=80, seed=5)
        noise = np.random.default_rng(6).standard_t(1.5, 200)
        design = Resolvent.of(x)
        factors, form = [], Resolvent.factor
        monkeypatch.setattr(Resolvent, "factor", lambda self, shift: factors.append(form(self, shift)) or factors[-1])
        config, warm = EstimatorConfig(HUBER, RIDGE, 0.1), None
        for scale in np.geomspace(1.0, 1.0e5, 12):
            fit = fit_proximal(config, design, x @ beta_star + scale * noise, x0=warm)
            assert fit.converged
            warm = fit.beta_hat
        assert len(factors) > 1 and all(f is factors[0] for f in factors)  # one array, read at every correction
        np.testing.assert_allclose(factors[0] @ factors[0].T, x @ np.linalg.solve(x.T @ x / 200 + 0.1 * np.eye(80), x.T),
                                   rtol=0.0, atol=1.0e-12)
        assert form(design, 0.2) is not factors[0] and design._factor[0] == 0.2  # one shift is kept at a time

    @staticmethod
    def route_through_the_eigenbasis(monkeypatch):
        """Put every outlier correction back on the route the factor replaced:
        ``A^-1 X_O'`` formed at each step through the generalized eigenpairs
        of ``G`` against ``T`` (``X'X/n`` and ``I`` on a design) taken here,
        and charged ``2 p^2 o + p o^2``; the other
        routes are left as they are.  Returns a list that gains an entry per
        correction made that way."""
        solve, costs = estimators._pattern_solve, estimators._route_costs
        corrections = []

        def eigenbasis_costs(design, m, q, shift):
            table = costs(design, m, q, shift)
            if "outliers" in table:
                n, p = design.x.shape
                table["outliers"] = 2.0 * p * p * (n - m) + p * (n - m) ** 2
            return table

        def eigenbasis_solve(design, y, k, outlier, sign, lam, anchor, mu):
            # G + s T through the generalized eigenpairs G V = T V diag(evals), V'T V = I
            x, inlier = design.x, outlier == 0.0
            n, p = x.shape
            shift = lam + mu if sign is None else mu
            table = eigenbasis_costs(design, int(inlier.sum()), p if sign is None else np.count_nonzero(sign), shift)
            if min(table, key=table.get) != "outliers" or inlier.all():
                return solve(design, y, k, outlier, sign, lam, anchor, mu)
            t = design.t_product(np.eye(p))
            c = x.T @ np.where(inlier, y, np.copysign(k, outlier)) / n + mu * t @ anchor
            if sign is not None:
                c -= lam * sign
            evals, evecs = scipy.linalg.eigh(x.T @ x / n, t)
            b = evecs @ ((evecs.T @ c) / (evals + shift))
            x_o = x[~inlier]
            w = evecs @ ((evecs.T @ x_o.T) / (evals + shift)[:, None])
            corrections.append(len(x_o))
            return b + w @ np.linalg.solve(n * np.eye(len(x_o)) - x_o @ w, x_o @ b)

        monkeypatch.setattr(estimators, "_route_costs", eigenbasis_costs)
        monkeypatch.setattr(estimators, "_pattern_solve", eigenbasis_solve)
        return corrections

    def test_tiny_trichotomy_takes_the_newton_steps_of_the_eigenbasis_route(self, monkeypatch):
        from test_experiments import tiny_config

        from heavyreg.experiments import run_experiment

        factored = run_experiment(tiny_config("trichotomy"))
        corrections = self.route_through_the_eigenbasis(monkeypatch)
        eigenbasis = run_experiment(tiny_config("trichotomy"))
        assert corrections
        assert factored.summary["checks"] == eigenbasis.summary["checks"]
        huber = 0
        for new, old in zip(factored.records, eigenbasis.records, strict=True):
            assert (new.estimator, new.sweep_value, new.replication) == (old.estimator, old.sweep_value,
                                                                         old.replication)
            assert new.newton_steps == old.newton_steps and new.converged == old.converged
            assert new.risk == pytest.approx(old.risk, rel=1.0e-13, abs=0.0)
            huber += new.estimator == "huber" and new.newton_steps > 0
        assert huber > 0

    def test_spd_solve_matches_scipys_cholesky(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((50, 30))
        a = a.T @ a + 0.1 * np.eye(30)
        for b in (rng.standard_normal(30), rng.standard_normal((30, 3))):
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
            got = estimators._spd_solve(a.copy(), b)
            assert got.shape == b.shape
            assert np.linalg.norm(got - want) <= 1.0e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("a", [np.diag([1.0, -1.0, 2.0]), np.ones((3, 3)), np.zeros((1, 1))])
    def test_spd_solve_raises_on_a_matrix_that_is_not_positive_definite(self, a):
        # fit_proximal's proximal retry catches exactly this error
        with pytest.raises(np.linalg.LinAlgError):
            estimators._spd_solve(a.copy(), np.ones(a.shape[0]))


class TestEmpiricalRisk:
    """Covariance-weighted parameter error."""

    def test_zero_when_the_estimate_is_exact(self):
        beta = np.arange(4.0)
        assert empirical_risk(beta, beta, np.eye(4)) == 0.0

    def test_unit_coordinate_error_under_identity(self):
        p = 8
        beta_star = np.zeros(p)
        beta_hat = np.zeros(p)
        beta_hat[0] = 1.0
        assert empirical_risk(beta_hat, beta_star, np.eye(p)) == pytest.approx(1.0 / p)

    def test_weights_the_error_by_the_covariance(self):
        sigma = np.array([[2.0, 0.0], [0.0, 0.5]])
        risk = empirical_risk(np.array([1.0, 1.0]), np.zeros(2), sigma)
        assert risk == pytest.approx((2.0 + 0.5) / 2.0)

    def test_shape_mismatches_are_rejected(self):
        with pytest.raises(ConfigError):
            empirical_risk(np.zeros(3), np.zeros(4), np.eye(3))
        with pytest.raises(ConfigError):
            empirical_risk(np.zeros(3), np.zeros(3), np.eye(4))
