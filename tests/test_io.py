import json

import numpy as np
import pytest

from phaseret.io import (dump_measurement, dump_signal, load_measurement,
                         load_signal, load_measurement_file, load_signal_file,
                         save_measurement_file, save_signal_file)
from phaseret.measurement import AugmentationSpec, measure_augmented
from phaseret.signals import MeasurementSet


def random_signal(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_signal_json_round_trip_is_exact(tmp_path):
    x = random_signal(0, 13)
    path = str(tmp_path / "sig.json")
    save_signal_file(path, x)
    np.testing.assert_array_equal(load_signal_file(path), x)
    # and through the plain dict API
    np.testing.assert_array_equal(load_signal(json.loads(
        json.dumps(dump_signal(x)))), x)


def test_signal_csv_round_trip_is_exact(tmp_path):
    x = random_signal(1, 9)
    path = str(tmp_path / "sig.csv")
    save_signal_file(path, x)
    np.testing.assert_array_equal(load_signal_file(path), x)


def test_measurement_round_trip_with_augmentation(tmp_path):
    spec = AugmentationSpec(delta=35.0 - 0.25j, gap=2)
    ms = measure_augmented(random_signal(2, 6), spec, 40)
    path = str(tmp_path / "meas.json")
    save_measurement_file(path, ms)
    back = load_measurement_file(path)
    np.testing.assert_array_equal(back.b, ms.b)
    assert back.n == ms.n and back.m == ms.m
    assert back.augmentation.delta == spec.delta
    assert back.augmentation.gap == 2
    assert back.augmentation.side == "prefix"


def test_measurement_round_trip_without_augmentation():
    ms = MeasurementSet([1.0, 0.5, 0.25], 1, sigma2=0.01, real_signal=True)
    back = load_measurement(json.loads(json.dumps(dump_measurement(ms))))
    np.testing.assert_array_equal(back.b, ms.b)
    assert back.sigma2 == 0.01 and back.real_signal and back.augmentation is None


def test_measurement_with_margin_flag_still_loads():
    # files written before the flag was dropped carry it; it is ignored
    obj = {"m": 4, "n": 2, "b": [4.0, 1.0, 0.0, 1.0],
           "augmentation": {"delta_re": 1.5, "delta_im": 0.0, "gap": 0,
                            "side": "prefix", "margin_violated": True}}
    ms = load_measurement(obj)
    assert ms.augmentation.delta == 1.5
    assert "margin_violated" not in dump_measurement(ms)["augmentation"]


def test_seventeen_digit_floats_round_trip():
    # 0.1 + 0.2 is the canonical hard case for decimal round-trips
    x = np.array([0.1 + 0.2, np.pi, 1e-300])
    obj = json.loads(json.dumps(dump_signal(x)))
    np.testing.assert_array_equal(load_signal(obj).real, x)


def test_json_text_matches_seventeen_digit_literals():
    # the shortest round-trip repr writes the same text as parsing back
    # each value's 17-significant-digit literal
    def seventeen(values):
        return [float(f"{v:.17g}") for v in np.asarray(values, dtype=float)]

    awkward = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 2.0**53 + 1.0]
    values = np.concatenate((awkward,
                             np.random.default_rng(41).normal(size=64) * 1e3))
    x = values + 1j * values[::-1]
    assert json.dumps(dump_signal(x)) == json.dumps(
        {"n": x.size, "real": seventeen(x.real), "imag": seventeen(x.imag)})

    ms = MeasurementSet(values, 8, sigma2=0.1 + 0.2,
                        augmentation=AugmentationSpec(delta=0.1 - 5e-324j))
    obj = dump_measurement(ms)
    assert json.dumps(obj["b"]) == json.dumps(seventeen(ms.b))
    assert json.dumps([obj["sigma2"], obj["augmentation"]["delta_re"],
                       obj["augmentation"]["delta_im"]]) == json.dumps(
        seventeen([0.1 + 0.2, 0.1, -5e-324]))


def test_malformed_inputs_raise_with_context(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_signal_file(str(bad_json))

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_signal_file(str(bad_csv))

    with pytest.raises(ValueError, match="length mismatch"):
        load_signal({"n": 3, "real": [1.0], "imag": [0.0]})
    with pytest.raises(ValueError, match="malformed"):
        load_measurement({"n": 2})
    with pytest.raises(ValueError, match="malformed"):
        load_measurement({"m": [1], "n": 1, "b": [1.0]})
    # nested lists are not one signal or one measurement
    with pytest.raises(ValueError, match="flat list"):
        load_signal({"n": 4, "real": [[1.0, 2.0], [3.0, 4.0]],
                     "imag": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="flat list"):
        load_measurement({"m": 8, "n": 1, "b": [[1.0] * 4] * 2})


VALID_MEASUREMENT = {"m": 8, "n": 3, "b": [1.0] * 8,
                     "augmentation": {"delta_re": 3.0, "gap": 1}}


def test_measurement_gap_must_leave_a_signal_sample():
    # the impulse, the gap zeros and at least one sample of s
    assert load_measurement(VALID_MEASUREMENT).augmentation.gap == 1
    obj = dict(VALID_MEASUREMENT, augmentation={"delta_re": 3.0, "gap": 2})
    with pytest.raises(ValueError, match="no signal sample"):
        load_measurement(obj)


def test_measurement_real_signal_must_be_a_bool():
    assert load_measurement(dict(VALID_MEASUREMENT,
                                 real_signal=False)).real_signal is False
    with pytest.raises(ValueError, match="real_signal"):
        load_measurement(dict(VALID_MEASUREMENT, real_signal="false"))


def test_measurement_n_must_be_an_integer():
    with pytest.raises(ValueError, match="malformed"):
        load_measurement(dict(VALID_MEASUREMENT, n=2.9))


@pytest.mark.parametrize("name,text", [
    ("empty.csv", ""), ("nan.csv", "1.0,0.0\nnan,0.0\n"),
    ("nan.json", '{"n": 2, "real": [1.0, NaN], "imag": [0.0, 0.0]}')])
def test_signal_files_must_hold_finite_samples(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match="length >= 1|finite"):
        load_signal_file(str(path))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "sig.json"
    save_signal_file(str(path), random_signal(3, 4))
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
