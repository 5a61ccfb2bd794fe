"""Tests for covariance models, eigendecomposition, and design sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyreg import spectrum
from heavyreg.errors import ConfigError, ConvergenceError
from heavyreg.spectrum import (
    CovarianceKind,
    CovarianceModel,
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

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 1.5])
    def test_ar1_rejects_degenerate_correlation(self, rho):
        with pytest.raises(ConfigError):
            CovarianceModel.ar1(4, rho)

    def test_explicit_rejects_asymmetric_matrix(self):
        m = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ConfigError):
            CovarianceModel.explicit(m)

    def test_explicit_round_trips(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = CovarianceModel.explicit(m)
        assert model.kind is CovarianceKind.EXPLICIT
        assert np.array_equal(model.materialize(), m)


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

    def test_singular_matrix_rejected(self):
        m = np.ones((3, 3))
        with pytest.raises(ConfigError):
            decompose(CovarianceModel.explicit(m))

    def test_inexact_eigendecomposition_is_a_convergence_failure(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(spectrum.np.linalg, "eigh", lambda m: (eigh(m)[0] * (1.0 + 1.0e-6), eigh(m)[1]))
        with pytest.raises(ConvergenceError, match="reconstruction error"):
            decompose(CovarianceModel.ar1(10, 0.5))


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
