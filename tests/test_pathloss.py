import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackside.pathloss import (
    DeadBeaconWarning,
    Material,
    NearFieldWarning,
    PathLossModel,
    RssiSample,
    SingularFitError,
    attenuation_from_ranges,
    detection_range,
    fit_exponent,
    load_samples_csv,
    parse_materials,
    predict_rssi,
)
from trackside.presets import path_loss_preset

HM10 = path_loss_preset("hm10-bt4")
BT5 = path_loss_preset("otsb-bt5")


models = st.builds(
    PathLossModel,
    rssi_ref_dbm=st.floats(-90, -40),
    exponent=st.floats(0.6, 5.9),
    reliability_threshold_dbm=st.just(-140.0),
)


class TestPredictRssi:
    def test_reference_anchor_exact(self):
        assert predict_rssi(HM10, 1.0) == -70.0

    @given(models)
    def test_any_model_reference_distance(self, model):
        assert predict_rssi(model, 1.0) == model.rssi_ref_dbm

    def test_threshold_anchor_25m(self):
        # oracle: solving -70 - 10*n*log10(25) = -95 gives the preset n,
        # so the forward prediction must land back on -95.
        assert predict_rssi(HM10, 25.0) == pytest.approx(-95.0, abs=0.1)

    @given(models, st.floats(1.0, 199.0), st.floats(1.001, 1.5))
    def test_strictly_decreasing_in_distance(self, model, d, factor):
        assert predict_rssi(model, d * factor) < predict_rssi(model, d)

    def test_materials_subtract(self):
        clear = predict_rssi(HM10, 10.0)
        cased = predict_rssi(HM10, 10.0, {Material.PLASTIC_CASE})
        assert cased == pytest.approx(clear - 3.01)

    def test_near_field_clamped_with_warning(self):
        with pytest.warns(NearFieldWarning):
            assert predict_rssi(HM10, 0.5) == -70.0

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            predict_rssi(HM10, 0.0)
        with pytest.raises(ValueError):
            predict_rssi(HM10, -3.0)


class TestDetectionRange:
    def test_hm10_reaches_25m(self):
        assert detection_range(HM10, -95.0) == pytest.approx(25.0, abs=0.5)

    def test_bt5_reaches_41m(self):
        assert detection_range(BT5, -95.0) == pytest.approx(41.0, abs=0.5)

    def test_threshold_at_reference_gives_1m(self):
        assert detection_range(HM10, HM10.rssi_ref_dbm) == pytest.approx(1.0)

    def test_dead_on_arrival(self):
        with pytest.warns(DeadBeaconWarning):
            assert detection_range(HM10, -60.0) == 0.0

    def test_attenuated_dead_on_arrival(self):
        heavy = PathLossModel(attenuation_db={Material.NONE: 0.0, Material.BONNET: 40.0})
        with pytest.warns(DeadBeaconWarning):
            assert detection_range(heavy, -95.0, {Material.BONNET}) == 0.0

    def test_range_beyond_a_float_rejected(self):
        # A 1e6 dBm reference puts the range at 10 ** 55900 m.
        assert detection_range(PathLossModel(rssi_ref_dbm=1000.0)) < math.inf
        with pytest.raises(ValueError, match="beyond any distance"):
            detection_range(PathLossModel(rssi_ref_dbm=1e6))

    @given(models, st.floats(1.0, 200.0))
    @settings(max_examples=200)
    def test_roundtrip_inverse_of_predict(self, model, d):
        rssi = predict_rssi(model, d)
        assert detection_range(model, rssi) == pytest.approx(d, rel=1e-9)

    @given(st.floats(1.0, 200.0))
    def test_materials_strictly_reduce_range(self, d):
        for material in (Material.PLASTIC_CASE, Material.WATER_LITRE, Material.BONNET):
            assert detection_range(HM10, -95.0, {material}) < detection_range(HM10, -95.0)


class TestAttenuationFromRanges:
    def test_equal_ranges_no_loss(self):
        assert attenuation_from_ranges(66.3, 66.3, 1.788) == 0.0

    def test_water_anchor(self):
        # oracle: 10 * n * log10(clear/obstructed) evaluated directly
        n = 1.788
        expected = 10 * n * math.log10(66.3 / 33.0)
        got = attenuation_from_ranges(66.3, 33.0, n)
        assert got == expected
        assert got == pytest.approx(5.42, abs=0.05)

    def test_cardboard_anchor(self):
        assert attenuation_from_ranges(66.3, 57.0, 1.788) == pytest.approx(1.17, abs=0.05)

    def test_obstructed_beyond_clear_rejected(self):
        with pytest.raises(ValueError):
            attenuation_from_ranges(45.0, 66.3, 1.788)


class TestFitExponent:
    def test_noiseless_recovery(self):
        truth = PathLossModel(exponent=2.345)
        samples = [
            RssiSample(d, predict_rssi(truth, d)) for d in (1, 2, 5, 10, 25, 50, 120)
        ]
        fit = fit_exponent(samples)
        assert fit.model.exponent == pytest.approx(2.345, abs=1e-6)
        assert max(abs(r) for r in fit.residuals_db) < 1e-9

    def test_two_anchor_fit(self):
        # oracle: closed-form two-point solve n = (ref - rssi) / (10 log10 d)
        samples = [RssiSample(1.0, -70.0), RssiSample(25.0, -95.0)]
        fit = fit_exponent(samples)
        two_point = 25.0 / (10.0 * math.log10(25.0))
        assert fit.model.exponent == pytest.approx(two_point, abs=1e-12)
        assert fit.model.exponent == pytest.approx(1.788, abs=1e-3)

    def test_symmetric_noise_cancels(self):
        truth = PathLossModel(exponent=1.9)
        distances = (2, 5, 10, 20, 40)
        clean = [RssiSample(d, predict_rssi(truth, d)) for d in distances]
        noisy = []
        for d in distances:
            noisy.append(RssiSample(d, predict_rssi(truth, d) + 1.0))
            noisy.append(RssiSample(d, predict_rssi(truth, d) - 1.0))
        fit_clean = fit_exponent(clean)
        fit_noisy = fit_exponent(noisy)
        assert fit_noisy.model.exponent == pytest.approx(
            fit_clean.model.exponent, abs=1e-12
        )
        assert fit_noisy.stderr > 0

    def test_materials_accounted_in_fit(self):
        truth = PathLossModel(exponent=2.0)
        samples = [
            RssiSample(d, predict_rssi(truth, d, {Material.PLASTIC_CASE}),
                       {Material.PLASTIC_CASE})
            for d in (2, 4, 8, 16, 32)
        ]
        fit = fit_exponent(samples)
        assert fit.model.exponent == pytest.approx(2.0, abs=1e-9)

    def test_single_distance_is_singular(self):
        samples = [RssiSample(10.0, -88.0), RssiSample(10.0, -90.0)]
        with pytest.raises(SingularFitError):
            fit_exponent(samples)

    def test_fewer_than_two_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent([RssiSample(10.0, -88.0)])


class TestModelInvariants:
    def test_exponent_bounds_enforced(self):
        with pytest.raises(ValueError):
            PathLossModel(exponent=0.4)
        with pytest.raises(ValueError):
            PathLossModel(exponent=6.5)

    def test_reference_above_threshold(self):
        with pytest.raises(ValueError):
            PathLossModel(rssi_ref_dbm=-96.0, reliability_threshold_dbm=-95.0)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError):
            PathLossModel(attenuation_db={Material.NONE: 0.0, Material.BONNET: -1.0})

    def test_none_material_must_be_zero(self):
        with pytest.raises(ValueError):
            PathLossModel(attenuation_db={Material.NONE: 1.0})

    def test_sample_distance_positive(self):
        with pytest.raises(ValueError):
            RssiSample(0.0, -70.0)


class TestCsvIntake:
    def test_parse_materials_joined(self):
        assert parse_materials("plastic_case+water") == frozenset(
            {Material.PLASTIC_CASE, Material.WATER_LITRE}
        )
        assert parse_materials("none") == frozenset()
        assert parse_materials("") == frozenset()

    def test_parse_unknown_material(self):
        with pytest.raises(ValueError):
            parse_materials("kryptonite")

    def test_load_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "distance_m,rssi_dbm,materials\n"
            "1,-70,\n"
            "9,-87.1,plastic_case+water\n"
        )
        samples = load_samples_csv(path)
        assert len(samples) == 2
        assert samples[1].materials == frozenset(
            {Material.PLASTIC_CASE, Material.WATER_LITRE}
        )

    def test_load_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d,r\n1,2\n")
        with pytest.raises(ValueError):
            load_samples_csv(path)
