import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmimo.config import (InterferenceMode, NetworkConfig, config_from_dict,
                            db_to_linear, fits, load_config, validate)
from hexmimo.errors import (DomainError, InsufficientAntennas, PilotOverflow,
                            UnsupportedReuse)
from hexmimo.pilots import PilotPlan
from hexmimo.spectral import Scheme, SinrInputs, se_per_cell


def base_config(**overrides):
    base = dict(n_antennas=100, n_users=10, coherence_block=1000,
                reuse_factor=1, snr_linear=10.0)
    base.update(overrides)
    return NetworkConfig(**base)


def test_valid_baseline_point():
    cfg = base_config()
    assert validate(cfg) is cfg
    assert cfg.pilot_len == 10
    assert cfg.inv_snr == 0.1


def test_validate_is_idempotent():
    cfg = base_config()
    assert validate(validate(cfg)) == cfg


def test_pilot_overflow():
    cfg = base_config(n_users=400, reuse_factor=3)
    with pytest.raises(PilotOverflow):
        validate(cfg)  # B = 1200 > T = 1000


def test_insufficient_antennas_for_zero_forcing():
    cfg = base_config(n_antennas=30, n_users=10, reuse_factor=4)
    validate(cfg)  # fine without zero forcing
    with pytest.raises(InsufficientAntennas):
        validate(cfg, require_zf=True)  # B = 40 >= N = 30


@pytest.mark.parametrize("field,value", [
    ("n_antennas", 0),
    ("n_users", 0),
    ("coherence_block", 0),
    ("reuse_factor", 0),
    ("snr_linear", -1.0),
    ("snr_linear", 0.0),
    ("pathloss_exponent", 1.5),
    ("cell_radius", 0.0),
    ("pathloss_ref", -2.0),
    ("min_ue_distance_frac", 1.0),
    ("snr_linear", math.nan),
    ("snr_linear", math.inf),
    ("pathloss_exponent", math.nan),
    ("pathloss_exponent", math.inf),
    ("cell_radius", math.nan),
    ("cell_radius", math.inf),
    ("pathloss_ref", math.nan),
    ("pathloss_ref", math.inf),
    ("n_antennas", True),
    ("n_antennas", 64.0),
    ("n_users", 2.5),
    ("coherence_block", 1000.5),
    ("reuse_factor", "1"),
])
def test_domain_errors(field, value):
    with pytest.raises(DomainError):
        validate(base_config(**{field: value}))


def test_numpy_scalars_are_valid_values():
    cfg = base_config(n_antennas=np.int64(64), n_users=np.int32(4),
                      snr_linear=np.float64(10.0), cell_radius=np.float32(250.0))
    assert validate(cfg) is cfg


@pytest.mark.parametrize("value,hint,expected", [
    (3, int, True), (np.uint8(3), int, True), (True, int, False), (3.0, int, False),
    (1.5, float, True), (3, float, True), (math.nan, float, False),
    (-math.inf, float, False), (10 ** 400, float, False), (False, float, False),
    (True, bool, True), (1, bool, False), ("x", str, True), (None, str, False),
    ({}, dict, True), ([], dict, False), ([1, 2], list[int], True),
    ([1, True], list[int], False), ((1, 2), list[int], False),
    (["a"], list[str], True), (None, str | None, True), (5, str | None, False),
    (None, int | None, True), (2.0, int | None, False),
])
def test_fits_reads_the_annotation(value, hint, expected):
    assert fits(value, hint) is expected


def test_snr_conversion_exact_at_round_db():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(20.0) == 100.0


def test_config_from_dict_accepts_snr_db():
    cfg = config_from_dict({"n_antennas": 64, "n_users": 4, "coherence_block": 500,
                            "reuse_factor": 3, "snr_db": 10.0})
    assert cfg.snr_linear == 10.0
    with pytest.raises(DomainError):
        config_from_dict({"n_antennas": 64, "n_users": 4, "coherence_block": 500,
                          "reuse_factor": 3, "snr_db": 10.0, "snr_linear": 10.0})


def test_config_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(DomainError):
        config_from_dict({"n_antennas": 64, "bogus": 1})
    with pytest.raises(DomainError):
        config_from_dict({"n_antennas": 64})


def test_load_config_json_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "n_antennas": 128, "n_users": 8, "coherence_block": 1000,
        "reuse_factor": 3, "snr_db": 10.0, "pathloss_exponent": 3.5,
        "cell_radius": 250.0}))
    cfg = load_config(path)
    assert cfg.n_antennas == 128
    assert cfg.pilot_len == 24
    assert cfg.min_ue_distance_frac == 0.14  # default


def test_interference_mode_values():
    assert InterferenceMode("avg") is InterferenceMode.AVERAGE
    assert InterferenceMode("worst") is InterferenceMode.WORST_CASE


_VALID_FIELDS = {
    "n_antennas": st.integers(1, 10 ** 4),
    "n_users": st.integers(1, 500),
    "coherence_block": st.integers(1, 5000),
    "reuse_factor": st.sampled_from([1, 3, 4, 7]),
    "snr_linear": st.floats(1e-3, 1e4),
    "pathloss_exponent": st.floats(2.0, 6.0),
    "cell_radius": st.floats(1.0, 1e4),
    "pathloss_ref": st.floats(1e-6, 1e6),
    "min_ue_distance_frac": st.floats(0.0, 0.99),
}
_ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "3", 0, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_config_is_rejected_or_gives_finite_se(data, avg_table, worst_table):
    # a valid config with up to three fields replaced by arbitrary JSON-like values
    raw = {name: data.draw(strategy, label=name)
           for name, strategy in _VALID_FIELDS.items()}
    for name in data.draw(st.sets(st.sampled_from(sorted(raw)), max_size=3),
                          label="odd fields"):
        raw[name] = data.draw(_ODD_VALUES, label=name)
    table = data.draw(st.sampled_from([avg_table, worst_table]), label="table")
    scheme = data.draw(st.sampled_from(list(Scheme)), label="scheme")
    try:
        cfg = config_from_dict(raw)
        inputs = SinrInputs(config=cfg, moments=table,
                            plan=PilotPlan(cfg.n_users, cfg.reuse_factor),
                            scheme=scheme)
        result = se_per_cell(inputs)
    except (DomainError, PilotOverflow, InsufficientAntennas, UnsupportedReuse):
        return
    assert math.isfinite(result.se_per_cell) and result.se_per_cell >= 0.0
