"""Tests for parameter containers, validation, costs, and config I/O."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdr.model import (
    CALIBRATED_TOTAL_STD,
    ModelParams,
    ParameterError,
    Sigma_of,
    calibrated_defaults,
    effort_cost,
    load_params,
    params_from_mapping,
    read_flat_config,
    sigma_of,
    validate,
    with_variance_share,
)


class TestCalibratedDefaults:
    def test_reference_values(self):
        p = calibrated_defaults()
        assert p.d == 1
        assert p.rho == (9.3e-5,)
        assert p.lambda_ == (2.8e-2,)
        assert p.eta == (1.0,)
        assert p.r_a == 5.7e-3
        assert p.r_p == 6e-3
        assert p.theta == 4e-3
        assert p.horizon == 5.5
        assert p.x0 == 0.0
        assert p.delta == -55.44
        assert p.kappa == 11.76
        assert p.b_min == 0.01
        assert p.a_max == pytest.approx(2 * 55.44 * 5.5, rel=1e-15)

    def test_half_share_splits_variance_evenly(self):
        p = calibrated_defaults(0.5)
        assert p.sigma[0] == pytest.approx(p.sigma_circ, rel=1e-15)
        total = p.sigma[0] ** 2 + p.sigma_circ**2
        assert total == pytest.approx(CALIBRATED_TOTAL_STD**2, rel=1e-14)

    def test_full_common_share_zeroes_idiosyncratic(self):
        p = calibrated_defaults(1.0)
        assert p.sigma == (0.0,)
        assert p.sigma_circ == pytest.approx(CALIBRATED_TOTAL_STD, rel=1e-15)

    def test_zero_share_zeroes_common(self):
        p = calibrated_defaults(0.0)
        assert p.sigma_circ == 0.0
        assert p.sigma[0] == pytest.approx(CALIBRATED_TOTAL_STD, rel=1e-15)

    @pytest.mark.parametrize("share", [-0.01, 1.01, math.nan])
    def test_share_out_of_range_rejected(self, share):
        with pytest.raises(ParameterError):
            calibrated_defaults(share)

    @pytest.mark.parametrize("share", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_total_variance_preserved(self, share):
        p = calibrated_defaults(share)
        total = sum(s**2 for s in p.sigma) + p.sigma_circ**2
        assert total == pytest.approx(CALIBRATED_TOTAL_STD**2, rel=1e-14)


class TestDerivedFields:
    def test_aggregates(self):
        p = calibrated_defaults()
        assert p.rho_bar == 9.3e-5
        assert p.lambda_bar == 2.8e-2
        # Harmonic combination: 1/r_bar = 1/r_a + 1/r_p.
        assert p.r_bar * (1.0 / p.r_a + 1.0 / p.r_p) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_r_bar_vanishes_for_risk_neutral_principal(self):
        p = dataclasses.replace(calibrated_defaults(), r_p=0.0)
        assert p.r_bar == 0.0

    def test_multi_usage_aggregates(self):
        p = dataclasses.replace(
            calibrated_defaults(),
            d=3,
            rho=(1e-4, 2e-4, 3e-4),
            lambda_=(0.01, 0.05, 0.02),
            eta=(1.0, 2.0, 1.5),
            sigma=(0.03, 0.04, 0.02),
        )
        validate(p)
        assert p.rho_bar == pytest.approx(6e-4, rel=1e-15)
        assert p.lambda_bar == 0.05


class TestValidate:
    def test_calibrated_passes(self):
        validate(calibrated_defaults())

    def test_eta_below_one_rejected(self):
        p = dataclasses.replace(calibrated_defaults(), eta=(0.999,))
        with pytest.raises(ParameterError, match="eta"):
            validate(p)

    def test_eta_exactly_one_accepted(self):
        validate(dataclasses.replace(calibrated_defaults(), eta=(1.0,)))

    def test_zero_sigma_component_accepted(self):
        validate(dataclasses.replace(calibrated_defaults(), sigma=(0.0,)))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("b_min", 0.0),
            ("b_min", 1.0),
            ("rho", (0.0,)),
            ("lambda_", (-1e-3,)),
            ("sigma", (-0.01,)),
            ("sigma_circ", -0.1),
            ("a_max", 0.0),
            ("r_a", 0.0),
            ("r_p", -1e-9),
            ("theta", -1e-9),
            ("horizon", 0.0),
            ("d", 0),
        ],
    )
    def test_single_violations(self, field, value):
        p = dataclasses.replace(calibrated_defaults(), **{field: value})
        with pytest.raises(ParameterError):
            validate(p)

    @pytest.mark.parametrize(
        "field",
        ["rho", "lambda_", "eta", "sigma", "sigma_circ", "a_max", "b_min",
         "r_a", "r_p", "theta", "horizon", "x0", "delta", "kappa"],
    )
    def test_infinite_values_rejected(self, field):
        p = calibrated_defaults()
        value = (math.inf,) if isinstance(getattr(p, field), tuple) else math.inf
        with pytest.raises(ParameterError, match="inf"):
            validate(dataclasses.replace(p, **{field: value}))

    def test_vector_length_mismatch(self):
        p = dataclasses.replace(calibrated_defaults(), rho=(1e-4, 2e-4))
        with pytest.raises(ParameterError, match="rho"):
            validate(p)

    def test_all_violations_collected(self):
        p = dataclasses.replace(
            calibrated_defaults(), b_min=0.0, r_a=-1.0, horizon=-2.0
        )
        with pytest.raises(ParameterError) as excinfo:
            validate(p)
        text = str(excinfo.value)
        assert "b_min" in text
        assert "r_a" in text
        assert "horizon" in text
        assert len(excinfo.value.violations) >= 3

    def test_frozen(self):
        p = calibrated_defaults()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.theta = 1.0


class TestEffortCost:
    def test_reference_value_drift_only(self):
        p = calibrated_defaults()
        # a = rho * 100 with quadratic cost a^2 / (2 rho) = rho * 100^2 / 2.
        cost = effort_cost((9.3e-3,), (1.0,), p)
        assert cost == pytest.approx(0.465, rel=1e-12)

    def test_reference_value_volatility_only(self):
        p = calibrated_defaults(0.5)
        sigma_sq = p.sigma[0] ** 2
        expected = 0.5 * sigma_sq / (2.8e-2 * 1.0) * (1.0 / 0.25 - 1.0)
        cost = effort_cost((0.0,), (0.25,), p)
        assert cost == pytest.approx(expected, rel=1e-13)
        assert cost == pytest.approx(0.19352678571428572, rel=1e-12)

    def test_reference_value_half_retention(self):
        p = dataclasses.replace(calibrated_defaults(), sigma=(0.0601,))
        # b = 1/2 with eta = 1: cost is sigma^2 / (2 lambda).
        cost = effort_cost((0.0,), (0.5,), p)
        assert cost == pytest.approx(0.06450017857142858, rel=1e-12)

    def test_zero_iff_no_effort(self):
        p = calibrated_defaults()
        assert effort_cost((0.0,), (1.0,), p) == 0.0
        assert effort_cost((1e-6,), (1.0,), p) > 0.0
        assert effort_cost((0.0,), (0.999999,), p) > 0.0

    def test_domain_violations(self):
        p = calibrated_defaults()
        with pytest.raises(ParameterError):
            effort_cost((-1e-9,), (1.0,), p)
        with pytest.raises(ParameterError):
            effort_cost((p.rho[0] * p.a_max * 1.0001,), (1.0,), p)
        with pytest.raises(ParameterError):
            effort_cost((0.0,), (1.0 + 1e-9,), p)
        with pytest.raises(ParameterError):
            effort_cost((0.0,), (p.b_min * 0.5,), p)

    @settings(max_examples=50, deadline=None)
    @given(
        a1=st.floats(0.0, 5e-2),
        a2=st.floats(0.0, 5e-2),
        b=st.floats(0.01, 1.0),
    )
    def test_increasing_in_drift_effort(self, a1, a2, b):
        p = calibrated_defaults()
        lo, hi = sorted((a1, a2))
        c_lo = effort_cost((lo,), (b,), p)
        c_hi = effort_cost((hi,), (b,), p)
        assert c_hi >= c_lo
        increment = (hi * hi - lo * lo) / (2.0 * p.rho[0])
        if increment > 1e-12 * (1.0 + c_lo):  # resolvable in float64
            assert c_hi > c_lo

    @settings(max_examples=50, deadline=None)
    @given(
        b1=st.floats(0.01, 1.0),
        b2=st.floats(0.01, 1.0),
        a=st.floats(0.0, 5e-2),
    )
    def test_decreasing_in_volatility_retention(self, b1, b2, a):
        p = calibrated_defaults()
        lo, hi = sorted((b1, b2))
        c_lo_b = effort_cost((a,), (lo,), p)
        c_hi_b = effort_cost((a,), (hi,), p)
        assert c_lo_b >= c_hi_b


class TestVolatilityMaps:
    def test_reference_values(self):
        p = calibrated_defaults(0.5)
        s = sigma_of((0.25,), p)
        assert isinstance(s, np.ndarray)
        assert s[0] == pytest.approx(p.sigma[0] * 0.5, rel=1e-15)
        assert Sigma_of((0.25,), p) == pytest.approx(
            p.sigma[0] ** 2 * 0.25, rel=1e-15
        )

    def test_full_retention_recovers_base_variance(self):
        p = calibrated_defaults(0.5)
        assert Sigma_of((1.0,), p) == pytest.approx(
            p.sigma[0] ** 2, rel=1e-15
        )

    def test_linearity_in_retention(self):
        p = dataclasses.replace(
            calibrated_defaults(),
            d=2,
            rho=(1e-4, 2e-4),
            lambda_=(0.01, 0.02),
            eta=(1.0, 1.0),
            sigma=(0.03, 0.04),
        )
        full = Sigma_of((1.0, 1.0), p)
        half = Sigma_of((0.5, 0.5), p)
        assert half == pytest.approx(0.5 * full, rel=1e-14)
        assert full == pytest.approx(0.03**2 + 0.04**2, rel=1e-14)


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "d = 1\n"
            "rho = 9.3e-5\n"
            "lambda = 2.8e-2\n"
            "eta = 1.0\n"
            "sigma = 0.0601040764008566\n"
            "sigma_circ = 0.0601040764008566\n"
            "a_max = 609.84\n"
            "b_min = 0.01\n"
            "r_a = 5.7e-3\n"
            "r_p = 6e-3\n"
            "theta = 4e-3\n"
            "horizon = 5.5\n"
            "x0 = 0.0\n"
            "delta = -55.44\n"
            "kappa = 11.76\n"
        )
        p = load_params(path)
        assert p.lambda_ == (2.8e-2,)
        assert p.delta == -55.44
        assert p.a_max == 609.84

    def test_partial_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("r_p = 0.0\ntheta = 0.01\n")
        p = load_params(path)
        base = calibrated_defaults()
        assert p.r_p == 0.0
        assert p.theta == 0.01
        assert p.delta == base.delta
        assert p.sigma == base.sigma

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("horizon = 5.5\nbogus_key = 1\n")
        with pytest.raises(ParameterError, match="bogus_key"):
            load_params(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("theta = 1e-3\ntheta = 2e-3\n")
        with pytest.raises(ParameterError):
            load_params(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("theta = not-a-number\n")
        with pytest.raises(ParameterError, match="theta"):
            load_params(path)

    def test_vector_keys_parse_comma_lists(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "d = 2\n"
            "rho = 1e-4, 2e-4\n"
            "lambda = 0.01, 0.02\n"
            "eta = 1.0, 2.0\n"
            "sigma = 0.03, 0.04\n"
        )
        p = load_params(path)
        assert p.d == 2
        assert p.rho == (1e-4, 2e-4)
        assert p.lambda_ == (0.01, 0.02)

    def test_invalid_resulting_params_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("b_min = 2.0\n")
        with pytest.raises(ParameterError, match="b_min"):
            load_params(path)

    def test_comments_and_sections_tolerated(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "[config]\n"
            "# model horizon in hours\n"
            "horizon = 4.0  ; inline note\n"
        )
        p = load_params(path)
        assert p.horizon == 4.0

    def test_mapping_api(self):
        p = params_from_mapping({"lambda": "0.05", "r_p": "0"})
        assert p.lambda_ == (0.05,)
        assert p.r_p == 0.0

    def test_read_flat_config_returns_raw_strings(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("theta = 4e-3\nseed = 7\n")
        raw = read_flat_config(path)
        assert raw == {"theta": "4e-3", "seed": "7"}


class TestWithVarianceShare:
    def test_matches_calibrated_construction(self):
        base = calibrated_defaults(variance_share=0.5)
        for share in (0.0, 0.25, 0.5, 1.0):
            direct = calibrated_defaults(variance_share=share)
            moved = with_variance_share(base, share)
            assert moved.sigma_circ == pytest.approx(direct.sigma_circ, rel=1e-15)
            assert moved.sigma[0] == pytest.approx(direct.sigma[0], rel=1e-15)

    def test_preserves_total_variance(self):
        p = dataclasses.replace(
            calibrated_defaults(), d=2,
            rho=(1e-4, 2e-4), lambda_=(0.01, 0.02), eta=(1.0, 2.0),
            sigma=(0.03, 0.04),
        )
        total = sum(s**2 for s in p.sigma) + p.sigma_circ**2
        q = with_variance_share(p, 0.3)
        assert sum(s**2 for s in q.sigma) + q.sigma_circ**2 == pytest.approx(
            total, rel=1e-14
        )
        assert q.sigma_circ**2 == pytest.approx(0.3 * total, rel=1e-14)
        # usage profile preserved proportionally
        assert q.sigma[1] / q.sigma[0] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_round_trip_is_identity(self):
        p = calibrated_defaults(variance_share=0.25)
        share = p.sigma_circ**2 / (p.sigma[0] ** 2 + p.sigma_circ**2)
        q = with_variance_share(p, share)
        assert q.sigma_circ == pytest.approx(p.sigma_circ, rel=1e-12)
        assert q.sigma[0] == pytest.approx(p.sigma[0], rel=1e-12)

    def test_single_usage_recovers_from_pure_common_noise(self):
        p = calibrated_defaults(variance_share=1.0)
        assert p.sigma == (0.0,)
        q = with_variance_share(p, 0.5)
        assert q.sigma[0] == pytest.approx(
            math.sqrt(0.5) * CALIBRATED_TOTAL_STD, rel=1e-14
        )

    def test_multi_usage_pure_common_noise_rejected(self):
        p = dataclasses.replace(
            calibrated_defaults(variance_share=1.0), d=2,
            rho=(1e-4, 2e-4), lambda_=(0.01, 0.02), eta=(1.0, 2.0),
            sigma=(0.0, 0.0),
        )
        with pytest.raises(ParameterError, match="usage profile"):
            with_variance_share(p, 0.5)

    def test_rejects_out_of_range_share(self):
        p = calibrated_defaults()
        with pytest.raises(ParameterError, match="variance_share"):
            with_variance_share(p, 1.5)
        with pytest.raises(ParameterError, match="variance_share"):
            with_variance_share(p, -0.1)

    def test_rejects_zero_total_variance(self):
        p = dataclasses.replace(calibrated_defaults(), sigma=(0.0,), sigma_circ=0.0)
        with pytest.raises(ParameterError, match="total variance"):
            with_variance_share(p, 0.5)
