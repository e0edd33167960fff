import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmimo.config import (HEX_REUSE_FACTORS, InterferenceMode, NetworkConfig,
                            Schedule, Scheme, config_from_dict, db_to_linear,
                            fits, load_config, max_users)
from hexmimo.errors import (DomainError, InsufficientAntennas, PilotOverflow,
                            UnsupportedReuse)
from hexmimo.spectral import SinrInputs, se_per_cell


def base_config(**overrides):
    base = dict(coherence_block=1000, snr_linear=10.0)
    base.update(overrides)
    return NetworkConfig(**base)


def base_schedule(**overrides):
    base = dict(n_antennas=100, n_users=10, reuse_factor=1)
    base.update(overrides)
    return Schedule(**base)


def test_valid_baseline_point():
    cfg = base_config()
    assert cfg.inv_snr == 0.1
    schedule = base_schedule()
    schedule.check(cfg.coherence_block)
    assert schedule.pilot_len == 10


def test_pilot_overflow():
    schedule = base_schedule(n_users=400, reuse_factor=3)
    with pytest.raises(PilotOverflow):
        schedule.check(1000)  # B = 1200 > T = 1000


def test_insufficient_antennas_for_pzfc():
    schedule = base_schedule(n_antennas=30, n_users=10, reuse_factor=4)
    schedule.check(1000)  # fine without zero forcing
    with pytest.raises(InsufficientAntennas):
        schedule.check(1000, Scheme.PZFC)  # B = 40 >= N = 30


def test_check_takes_a_scheme_member():
    # a stale boolean is not read as a scheme (False would run the MRC
    # rule), and the keyword that once took it is gone
    schedule = base_schedule(n_antennas=30, n_users=10, reuse_factor=4)
    for scheme in (True, False, "pzfc"):
        with pytest.raises(DomainError, match="scheme must be a Scheme"):
            schedule.check(1000, scheme)
    with pytest.raises(TypeError):
        schedule.check(1000, zero_forcing=True)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("t_block", [20, 60])
def test_check_and_max_users_agree(scheme, t_block):
    # a schedule runs exactly when its K is at most the sweep's largest K
    for n, k, beta in itertools.product(range(1, 41), range(1, 13), HEX_REUSE_FACTORS):
        try:
            Schedule(n, k, beta).check(t_block, scheme)
            runs = True
        except (PilotOverflow, InsufficientAntennas):
            runs = False
        assert runs == (k <= max_users(n, scheme, beta, t_block)), (n, k, beta)


@pytest.mark.parametrize("field,value", [
    ("coherence_block", 0),
    ("snr_linear", -1.0),
    ("snr_linear", 0.0),
    ("pathloss_exponent", 1.5),
    ("pathloss_exponent", -2.0),
    ("min_ue_distance_frac", 1.0),
    ("min_ue_distance_frac", -0.1),
    ("snr_linear", math.nan),
    ("snr_linear", math.inf),
    ("snr_linear", -math.inf),
    ("pathloss_exponent", math.nan),
    ("pathloss_exponent", math.inf),
    ("min_ue_distance_frac", math.nan),
    ("min_ue_distance_frac", math.inf),
    ("min_ue_distance_frac", -math.inf),
    ("coherence_block", 1000.5),
    ("coherence_block", True),
])
def test_domain_errors(field, value):
    with pytest.raises(DomainError):
        base_config(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("n_antennas", 0),
    ("n_users", 0),
    ("reuse_factor", 0),
    ("n_antennas", True),
    ("n_antennas", 64.0),
    ("n_users", 2.5),
    ("reuse_factor", "1"),
])
def test_schedule_domain_errors(field, value):
    with pytest.raises(DomainError):
        base_schedule(**{field: value})


def test_numpy_scalars_are_valid_values():
    cfg = base_config(coherence_block=np.int64(1000), snr_linear=np.float64(10.0),
                      pathloss_exponent=np.float32(3.5))
    schedule = Schedule(np.int64(64), np.int32(4), np.uint8(3))
    schedule.check(cfg.coherence_block)
    assert schedule.pilot_len == 12


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
    cfg = config_from_dict({"coherence_block": 500, "snr_db": 10.0})
    assert cfg.snr_linear == 10.0
    with pytest.raises(DomainError):
        config_from_dict({"coherence_block": 500, "snr_db": 10.0, "snr_linear": 10.0})


def test_config_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(DomainError, match="unknown keys"):
        config_from_dict({"coherence_block": 64, "snr_db": 10.0, "bogus": 1})
    with pytest.raises(DomainError, match="missing keys"):
        config_from_dict({"coherence_block": 64})
    # the schedule is no part of a config
    for name in ("n_antennas", "n_users", "reuse_factor"):
        with pytest.raises(DomainError, match="unknown keys"):
            config_from_dict({"coherence_block": 64, "snr_db": 10.0, name: 1})


def test_load_config_json_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "coherence_block": 1000, "snr_db": 10.0, "min_ue_distance_frac": 0.1}))
    cfg = load_config(path)
    assert cfg.coherence_block == 1000
    assert cfg.snr_linear == 10.0
    assert cfg.min_ue_distance_frac == 0.1
    assert cfg.pathloss_exponent == 3.5  # default


def test_interference_mode_values():
    assert InterferenceMode("avg") is InterferenceMode.AVERAGE
    assert InterferenceMode("worst") is InterferenceMode.WORST_CASE


_SCHEDULE_FIELDS = ("n_antennas", "n_users", "reuse_factor")
_VALID_FIELDS = {
    "n_antennas": st.integers(1, 10 ** 4),
    "n_users": st.integers(1, 500),
    "coherence_block": st.integers(1, 5000),
    "reuse_factor": st.sampled_from([1, 3, 4, 7]),
    "snr_linear": st.floats(1e-3, 1e4),
    "pathloss_exponent": st.floats(2.0, 6.0),
    "min_ue_distance_frac": st.floats(0.0, 0.99),
}
_ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "3", 0, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_config_is_rejected_or_gives_finite_se(data, avg_table, worst_table):
    # a valid config and schedule with up to three fields replaced by
    # arbitrary JSON-like values
    raw = {name: data.draw(strategy, label=name)
           for name, strategy in _VALID_FIELDS.items()}
    for name in data.draw(st.sets(st.sampled_from(sorted(raw)), max_size=3),
                          label="odd fields"):
        raw[name] = data.draw(_ODD_VALUES, label=name)
    table = data.draw(st.sampled_from([avg_table, worst_table]), label="table")
    scheme = data.draw(st.sampled_from(list(Scheme)), label="scheme")
    try:
        schedule = Schedule(*(raw.pop(name) for name in _SCHEDULE_FIELDS))
        inputs = SinrInputs(config=config_from_dict(raw), moments=table,
                            schedule=schedule, scheme=scheme)
        result = se_per_cell(inputs)
    except (DomainError, PilotOverflow, InsufficientAntennas, UnsupportedReuse):
        return
    assert math.isfinite(result.se_per_cell) and result.se_per_cell >= 0.0
