"""Tests for covariance models, eigendecomposition, and design sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from heavyreg import spectrum
from heavyreg.errors import ConfigError, ConvergenceError
from heavyreg.spectrum import (
    CovarianceModel,
    DiscreteSpectrum,
    decompose,
    project_delta,
    q_sigma,
    sample_design,
    sample_signal,
    sample_sphere,
)
from heavyreg.streams import substream


class TestCovarianceModel:
    """Covariance constructors and materialization."""

    def test_identity_materializes_to_eye(self):
        assert np.array_equal(CovarianceModel.identity(5).materialize(), np.eye(5))

    def test_ar1_entries_follow_geometric_decay(self):
        m = CovarianceModel.ar1(4, 0.5).materialize()
        expected = np.array(
            [
                [1.0, 0.5, 0.25, 0.125],
                [0.5, 1.0, 0.5, 0.25],
                [0.25, 0.5, 1.0, 0.5],
                [0.125, 0.25, 0.5, 1.0],
            ]
        )
        assert np.allclose(m, expected, rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 1.5, math.nan])
    def test_ar1_rejects_degenerate_correlation(self, rho):
        with pytest.raises(ConfigError):
            CovarianceModel.ar1(4, rho)

    @pytest.mark.parametrize("p", [1, 7, 300])
    def test_identity_is_zero_correlation_bit_for_bit(self, p):
        identity, ar1 = CovarianceModel.identity(p), CovarianceModel.ar1(p, 0.0)
        assert identity == ar1 == CovarianceModel(p)
        a, b = decompose(identity), decompose(ar1)
        for field in ("eigenvalues", "basis"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.matrix is None and b.matrix is None  # decompose forms no dense covariance


class TestDecompose:
    """Eigendecomposition contracts."""

    def test_identity_spectrum_is_flat(self):
        spec = decompose(CovarianceModel.identity(8))
        assert np.allclose(spec.eigenvalues, 1.0, rtol=0.0, atol=1.0e-14)

    def test_eigenvalues_ascend(self):
        spec = decompose(CovarianceModel.ar1(50, 0.5))
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)

    def test_ar1_eigenvalues_respect_known_band(self):
        """AR1 eigenvalues lie in [(1-rho)/(1+rho), (1+rho)/(1-rho)]."""
        rho = 0.5
        spec = decompose(CovarianceModel.ar1(100, rho))
        assert spec.eigenvalues[0] > (1.0 - rho) / (1.0 + rho) - 1.0e-12
        assert spec.eigenvalues[-1] < (1.0 + rho) / (1.0 - rho) + 1.0e-12

    def test_basis_is_orthonormal(self):
        spec = decompose(CovarianceModel.ar1(40, 0.5))
        gram = spec.basis.T @ spec.basis
        assert np.allclose(gram, np.eye(40), rtol=0.0, atol=1.0e-12)

    def test_inexact_tridiagonal_eigenvalues_fail_the_residual(self, monkeypatch):
        eigenpairs = spectrum._ar1_eigenpairs

        def perturbed(p, rho):
            values, basis = eigenpairs(p, rho)
            return values * (1.0 + 1.0e-6), basis

        monkeypatch.setattr(spectrum, "_ar1_eigenpairs", perturbed)
        with pytest.raises(ConvergenceError, match="residual"):
            decompose(CovarianceModel.ar1(10, 0.5))

    def test_duplicated_eigenpair_fails_the_orthogonality_check(self, monkeypatch):
        # an exact eigenpair twice passes the residual; only orthogonality sees it
        eigenpairs = spectrum._ar1_eigenpairs

        def duplicated(p, rho):
            values, basis = eigenpairs(p, rho)
            values[4], basis[:, 4] = values[3], basis[:, 3]
            return values, basis

        monkeypatch.setattr(spectrum, "_ar1_eigenpairs", duplicated)
        with pytest.raises(ConvergenceError, match="orthogonality"):
            decompose(CovarianceModel.ar1(10, 0.5))

    def test_unsettled_newton_steps_raise(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_NEWTON_CAP", 1)
        with pytest.raises(ConvergenceError, match="secular equation"):
            decompose(CovarianceModel.ar1(50, 0.5))

    def test_ar1_takes_no_dense_eigendecomposition(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        spec = decompose(CovarianceModel.ar1(1000, 0.5))
        assert calls == [] and spec.p == 1000

    def test_nearly_unit_correlation_is_rejected(self):
        # eigenvalues run from about (1 - rho)/2 = 5e-12 to about p = 50: a ratio of 1e-13
        with pytest.raises(ConfigError, match="numerically singular"):
            decompose(CovarianceModel.ar1(50, 1.0 - 1.0e-11))


def dense_ar1_inverse(p, rho):
    diag, off = spectrum._ar1_inverse(p, rho)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestTridiagonalRoute:
    """AR(1) spectra through the tridiagonal inverse, against dense ``eigh``."""

    @pytest.mark.parametrize("p", [1, 2, 3, 50])
    @pytest.mark.parametrize("rho", [0.5, -0.8])
    def test_closed_form_inverse_inverts_the_covariance(self, p, rho):
        product = dense_ar1_inverse(p, rho) @ CovarianceModel.ar1(p, rho).materialize()
        assert np.max(np.abs(product - np.eye(p))) <= 1.0e-13

    @given(st.integers(1, 300), st.floats(-0.99, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_eigendecomposition(self, p, rho):
        model = CovarianceModel.ar1(p, rho)
        sigma = model.materialize()
        spec = decompose(model)
        values, vectors = np.linalg.eigh(sigma)
        # The largest covariance eigenvalue is the reciprocal of the inverse's
        # smallest, found to eps ||T|| absolute, so it carries about eps kappa(T)
        # relative error, kappa(T) -> band**2; measured at most 1.4 eps band**2
        # (2.7e-12 at |rho| = 0.985) over p <= 300.
        band = (1.0 + abs(rho)) / (1.0 - abs(rho))
        drift = 2.0 * np.finfo(float).eps * band ** 2
        np.testing.assert_allclose(spec.eigenvalues, values, rtol=max(1.0e-13, drift), atol=0.0)
        recon = (spec.basis * spec.eigenvalues) @ spec.basis.T
        assert np.linalg.norm(recon - sigma) <= max(1.0e-12, drift) * np.linalg.norm(sigma)
        root = (vectors * np.sqrt(values)) @ vectors.T
        assert np.linalg.norm(spec.sqrt_matrix() - root) <= max(1.0e-12, drift) * np.linalg.norm(root)

    @pytest.mark.parametrize("p", [1, 2, 3, 50])
    def test_tridiagonal_product_is_the_dense_product(self, p):
        diag, off = spectrum._ar1_inverse(p, -0.8)
        u = substream(9, "design").standard_normal((p, 3))
        np.testing.assert_allclose(spectrum._tridiagonal_product(diag, off, u), dense_ar1_inverse(p, -0.8) @ u,
                                   rtol=0.0, atol=1.0e-13)

    def test_zero_correlation_is_the_identity_exactly(self):
        for model in (CovarianceModel.ar1(7, 0.0), CovarianceModel.identity(7)):
            spec = decompose(model)
            assert np.array_equal(spec.eigenvalues, np.ones(7))
            assert np.array_equal(spec.basis, np.eye(7))
            assert spec.matrix is None

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.95])
    def test_one_dimension_is_a_unit_variance(self, rho):
        spec = decompose(CovarianceModel.ar1(1, rho))
        assert spec.eigenvalues.tolist() == [1.0] and np.abs(spec.basis).tolist() == [[1.0]]
        assert spec.matrix is None

    @pytest.mark.parametrize("rho", [0.99, -0.99, 0.999])
    def test_eigenvalues_match_a_40_digit_oracle(self, rho):
        # eigh_tridiagonal of T read 3.4e-13, 3.4e-13 and 1.0e-11 here: the
        # largest eigenvalues are reciprocals of T's smallest
        mpmath = pytest.importorskip("mpmath")
        p = 60
        with mpmath.workdps(40):
            exact = mpmath.eigsy(mpmath.matrix([[mpmath.mpf(rho) ** abs(i - j) for j in range(p)]
                                                for i in range(p)]), eigvals_only=True)
            exact = np.sort(np.array([float(e) for e in exact]))
        spec = decompose(CovarianceModel.ar1(p, rho))
        assert np.max(np.abs(spec.eigenvalues / exact - 1.0)) <= 1.0e-14

    def test_basis_stays_orthonormal_at_large_dimension(self):
        # pins the exact argument reduction: with its integer part left unreduced this read 4.4e-12
        p = 2000
        spec = decompose(CovarianceModel.ar1(p, 0.5))
        gram = spec.basis.T @ spec.basis
        gram.flat[::p + 1] -= 1.0
        assert np.linalg.norm(gram) <= 1.0e-12

    @pytest.mark.parametrize("p", [7, 8])
    @pytest.mark.parametrize("rho", [0.5, -0.8])
    def test_eigenvectors_are_exactly_symmetric_or_antisymmetric(self, p, rho):
        # T commutes with the reversal J, so J u = +-u for every eigenvector u
        basis = decompose(CovarianceModel.ar1(p, rho)).basis
        assert np.array_equal(np.abs(basis[::-1]), np.abs(basis))

    @pytest.mark.parametrize("p, rho", [(2, 1.0 - 1.0e-6), (2, -1.0 + 1.0e-6), (40, 1.0 - 1.0e-5),
                                        (1000, 1.0 - 1.0e-4)])
    def test_near_unit_correlation_is_certified(self, p, rho):
        # the residual grows as eps ||T|| max(s), about eps / (1 - |rho|)^2; LAPACK's
        # eigenpairs missed its 1e-10 bound at the last two
        spec = decompose(CovarianceModel.ar1(p, rho))
        assert spec.eigenvalues[0] > 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("rho", [1.0e-8, -1.0e-8])
    def test_tiny_correlation_agrees_with_lapack(self, p, rho):
        diag, off = spectrum._ar1_inverse(p, rho)
        mu, vectors = linalg.eigh_tridiagonal(-diag, -off)
        spec = decompose(CovarianceModel.ar1(p, rho))
        np.testing.assert_allclose(spec.eigenvalues, -1.0 / mu, rtol=4.0e-16, atol=0.0)
        # at p = 3 LAPACK puts 4e-9 in the centre of the odd eigenvector,
        # which the symmetry of T makes exactly 0 (the closed form: 4e-17)
        signs = np.sign(np.sum(spec.basis * vectors, axis=0))
        np.testing.assert_allclose(spec.basis, vectors * signs, rtol=0.0, atol=1.0e-8)

    def test_materialized_ar1_is_the_outer_power(self):
        idx = np.arange(200)
        for rho in (0.5, -0.3, 0.99):
            outer = rho ** np.abs(np.subtract.outer(idx, idx))
            assert np.array_equal(CovarianceModel.ar1(200, rho).materialize(), outer)


class TestProjectDelta:
    """Misalignment projection and energy."""

    def test_identity_energy_is_norm_over_p(self):
        p = 64
        spec = decompose(CovarianceModel.identity(p))
        delta = sample_sphere(p, 1.0, substream(1, "signal"))
        spec = project_delta(spec, delta, np.zeros(p))
        assert q_sigma(spec) == pytest.approx(1.0 / p, rel=1.0e-12)

    def test_energy_matches_direct_quadratic_form(self):
        p = 120
        model = CovarianceModel.ar1(p, 0.5)
        spec = decompose(model)
        rng = substream(2, "signal")
        beta_star = sample_signal(p, 0.1, rng)
        beta0 = beta_star - sample_sphere(p, 1.0, rng)
        spec = project_delta(spec, beta_star, beta0)
        delta = beta_star - beta0
        direct = float(delta @ model.materialize() @ delta) / p
        assert q_sigma(spec) == pytest.approx(direct, rel=1.0e-12)

    def test_a_general_covariance_enters_through_its_own_spectrum(self):
        p = 30
        rng = substream(10, "signal")
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        sigma = (q * np.geomspace(0.1, 10.0, p)) @ q.T
        spec = DiscreteSpectrum(*np.linalg.eigh(sigma), matrix=sigma)
        delta = sample_sphere(p, 1.0, rng)
        spec = project_delta(spec, delta, np.zeros(p))
        assert q_sigma(spec) == pytest.approx(float(delta @ sigma @ delta) / p, rel=1.0e-12)

    def test_a_mispaired_spectrum_with_its_own_matrix_is_rejected(self):
        p = 30
        rng = substream(11, "signal")
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        sigma = (q * np.geomspace(0.1, 10.0, p)) @ q.T
        values, vectors = np.linalg.eigh(sigma)
        delta = sample_sphere(p, 1.0, rng)
        project_delta(DiscreteSpectrum(values, vectors, sigma), delta, np.zeros(p))  # paired: accepted
        with pytest.raises(ConfigError, match="misalignment energy mismatch"):
            project_delta(DiscreteSpectrum(values[::-1], vectors, sigma), delta, np.zeros(p))
        # None, the matrix decompose passes, skips the check
        project_delta(DiscreteSpectrum(values[::-1], vectors, None), delta, np.zeros(p))

    def test_shape_mismatch_rejected(self):
        spec = decompose(CovarianceModel.identity(4))
        with pytest.raises(ConfigError):
            project_delta(spec, np.zeros(5), np.zeros(5))

    def test_q_sigma_requires_projection(self):
        spec = decompose(CovarianceModel.identity(4))
        with pytest.raises(ConfigError):
            q_sigma(spec)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_energy_scales_quadratically_with_radius(self, radius):
        p = 32
        spec = decompose(CovarianceModel.ar1(p, 0.5))
        delta = sample_sphere(p, 1.0, substream(3, "signal"))
        base = q_sigma(project_delta(spec, delta, np.zeros(p)))
        scaled = q_sigma(project_delta(spec, radius * delta, np.zeros(p)))
        assert scaled == pytest.approx(radius ** 2 * base, rel=1.0e-9)


class TestEnergy:
    """``_energy``: the covariance energy ``v' Sigma v / p`` from the eigen-atoms."""

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.8])
    @pytest.mark.parametrize("norm", [1.0, 1.0e-12])
    def test_matches_the_dense_quadratic_form(self, rho, norm):
        p = 150
        model = CovarianceModel.ar1(p, rho)
        spec, sigma = decompose(model), model.materialize()
        block = substream(12, "signal").standard_normal((p, 4))
        block *= norm / np.linalg.norm(block, axis=0)
        energies = spectrum._energy(spec, block)
        assert energies.shape == (4,)
        for e, energy in zip(block.T, energies):
            direct = float(e @ sigma @ e) / p
            assert abs(energy - direct) <= 1.0e-13 * direct
            assert spectrum._energy(spec, e) == pytest.approx(energy, rel=1.0e-14)  # a column alone

    def test_without_a_vector_it_is_the_misalignment_energy(self):
        p = 40
        spec = decompose(CovarianceModel.ar1(p, 0.5))
        delta = sample_sphere(p, 1.0, substream(13, "signal"))
        projected = project_delta(spec, delta, np.zeros(p))
        assert spectrum._energy(projected) == q_sigma(projected) == pytest.approx(
            float(spectrum._energy(spec, delta)), rel=1.0e-14)


class TestSampling:
    """Design and signal samplers."""

    def test_design_shape(self):
        spec = decompose(CovarianceModel.ar1(6, 0.5))
        x = sample_design(spec, 11, substream(4, "design"))
        assert x.shape == (11, 6)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    def test_design_empirical_covariance_tracks_model(self, kind):
        """Row covariance of a large design approaches the model covariance."""
        p, n = 12, 40000
        model = CovarianceModel.ar1(p, 0.5)
        spec = decompose(model)
        x = sample_design(spec, n, substream(5, "design"), kind=kind)
        emp = x.T @ x / n
        err = np.linalg.norm(emp - model.materialize()) / np.linalg.norm(model.materialize())
        assert err < 0.05

    def test_unknown_design_kind_rejected(self):
        spec = decompose(CovarianceModel.identity(3))
        with pytest.raises(ConfigError):
            sample_design(spec, 5, substream(6, "design"), kind="uniform")

    def test_signal_support_size(self):
        beta = sample_signal(400, 0.1, substream(7, "signal"))
        assert int(np.count_nonzero(beta)) == math.ceil(0.1 * 400)

    def test_signal_rejects_bad_sparsity(self):
        with pytest.raises(ConfigError):
            sample_signal(10, 0.0, substream(8, "signal"))

    def test_sphere_norm_is_exact(self):
        v = sample_sphere(100, 2.5, substream(9, "signal"))
        assert float(np.linalg.norm(v)) == pytest.approx(2.5, rel=1.0e-12)

    def test_design_takes_the_square_root_once_per_spectrum(self, monkeypatch):
        """The cached root gives the bytes of ``z @ Sigma^1/2`` computed afresh
        for every draw, and is computed once however many designs are drawn."""
        spec = decompose(CovarianceModel.ar1(30, 0.5))
        roots = []
        numpy_sqrt = np.sqrt
        monkeypatch.setattr(spectrum.np, "sqrt", lambda a: roots.append(a.shape) or numpy_sqrt(a))
        for rep in range(3):
            x = sample_design(spec, 50, substream(11, "design", rep))
            z = substream(11, "design", rep).standard_normal((50, 30))
            assert np.array_equal(x, z @ ((spec.basis * numpy_sqrt(spec.eigenvalues)) @ spec.basis.T))
        assert roots == [(30,)]
        assert spec.sqrt_matrix() is spec.sqrt_matrix() and not spec.sqrt_matrix().flags.writeable

    def test_samplers_reproduce_from_equal_streams(self):
        a = sample_design(decompose(CovarianceModel.ar1(5, 0.5)), 7, substream(10, "design", 2))
        b = sample_design(decompose(CovarianceModel.ar1(5, 0.5)), 7, substream(10, "design", 2))
        assert np.array_equal(a, b)


def blockwise_oracle(z, w):
    """``Z'Z/n`` and ``Z'w/n`` summed over the row blocks of the draw's Gram pass, in the same order."""
    n, p = z.shape
    gram, v = np.zeros((p, p)), np.zeros(p)
    for start in range(0, n, spectrum._DRAW_BLOCK):
        block = z[start:start + spectrum._DRAW_BLOCK]
        gram += block.T @ block
        v += block.T @ w[start:start + spectrum._DRAW_BLOCK]
    return gram / n, v / n


class TestWhiteGram:
    """The white draw streamed into its Gram matrix a block of rows at a time."""

    # one row, fewer rows than a block, and a row count that is not a multiple of the block
    SIZES = [(1, 7), (50, 7), (2 * spectrum._DRAW_BLOCK + 44, 20), (300, 130)]

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("n, p", SIZES)
    def test_z_is_the_white_draw_and_its_products_are_summed_by_block(self, kind, n, p):
        w = np.random.default_rng(n).standard_normal(n)
        z, gram, v = spectrum._white_gram(n, p, substream(3, "design", 1), kind, w, keep=True)
        rng = substream(3, "design", 1)  # the stream's entries, as one draw of the whole matrix takes them
        whole = rng.standard_normal((n, p)) if kind == "gaussian" else np.where(rng.random((n, p)) < 0.5, -1.0, 1.0)
        assert np.array_equal(z, whole) and np.array_equal(z, spectrum._white_draw(n, p, substream(3, "design", 1), kind))
        want_gram, want_v = blockwise_oracle(z, w)
        assert np.array_equal(gram, want_gram) and np.array_equal(v, want_v)  # to the last bit
        assert np.array_equal(gram, gram.T) and gram.flags.c_contiguous
        dense = z.T @ z / n
        assert np.linalg.norm(gram - dense) <= 1.0e-15 * np.linalg.norm(dense)
        assert np.linalg.norm(v - z.T @ w / n) <= 1.0e-15 * np.linalg.norm(z.T @ w / n)
        if kind == "rademacher":  # sums of signs are exact in any order
            assert np.array_equal(gram, dense)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("n, p", SIZES)
    def test_a_draw_that_keeps_no_rows_has_the_same_products(self, kind, n, p):
        w = np.random.default_rng(n).standard_normal(n)
        z, gram, v = spectrum._white_gram(n, p, substream(4, "design"), kind, w, keep=True)
        none, streamed_gram, streamed_v = spectrum._white_gram(n, p, substream(4, "design"), kind, w, keep=False)
        assert none is None
        assert np.array_equal(streamed_gram, gram) and np.array_equal(streamed_v, v)

    def test_invalid_draws_are_rejected(self, monkeypatch):
        w = np.zeros(5)
        with pytest.raises(ConfigError, match="sample size"):
            spectrum._white_gram(0, 3, substream(5, "design"), "gaussian", np.zeros(0), keep=False)
        with pytest.raises(ConfigError, match="design kind"):
            spectrum._white_gram(5, 3, substream(5, "design"), "uniform", w, keep=False)
        monkeypatch.setattr(spectrum, "_white_rows", lambda rng, kind, out: out.fill(np.nan) or out)
        with pytest.raises(ConfigError, match="not finite"):
            spectrum._white_gram(5, 3, substream(5, "design"), "gaussian", w, keep=True)
