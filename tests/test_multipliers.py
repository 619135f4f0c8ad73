"""Multiplier tables: construction, characterization, file round trip."""

import numpy as np
import pytest

from axmoe.errors import FormatError, ParameterError
from axmoe.multipliers import (EXACT_NAME, EXACT_POWER_NW, FILE_SIZE, TABLE_SIZE,
                               AxMultiplier, ErrorStats, REFERENCE_MULTIPLIERS,
                               build_exact_multiplier, build_truncation_multiplier,
                               builtin_multiplier, error_stats, load_lut,
                               lut_index, per_op_saving, save_lut)


def _independent_exact_table():
    # Oracle built without touching the library's grid helpers.
    a = np.arange(-128, 128, dtype=np.int32)
    return np.multiply.outer(a, a).reshape(-1).astype(np.int16)


def test_exact_table_matches_independent_oracle():
    m = build_exact_multiplier()
    assert m.lut.shape == (TABLE_SIZE,)
    assert np.array_equal(m.lut, _independent_exact_table())


def test_lut_index_addresses_the_right_product():
    rng = np.random.default_rng(11)
    m = build_exact_multiplier()
    for _ in range(500):
        a = int(rng.integers(-128, 128))
        b = int(rng.integers(-128, 128))
        assert m.lut[lut_index(a, b)] == a * b


def test_truncation_matches_hand_model():
    rng = np.random.default_rng(29)
    for k in range(1, 8):
        m = build_truncation_multiplier(k)
        mask = ~np.int32((1 << k) - 1)
        for _ in range(200):
            a = int(rng.integers(-128, 128))
            b = int(rng.integers(-128, 128))
            ta = np.sign(a) * (abs(a) & mask)
            tb = np.sign(b) * (abs(b) & mask)
            assert m.lut[lut_index(a, b)] == ta * tb


def test_truncation_error_grows_with_dropped_bits():
    probs = []
    means = []
    for k in range(1, 8):
        stats = error_stats(build_truncation_multiplier(k))
        probs.append(stats.error_probability)
        means.append(stats.mean_abs_error)
    assert all(p2 >= p1 for p1, p2 in zip(probs, probs[1:]))
    assert all(m2 > m1 for m1, m2 in zip(means, means[1:]))


def test_truncation_power_interpolates_between_family_endpoints():
    powers = [build_truncation_multiplier(k).power_nw for k in range(1, 8)]
    assert powers[-1] == pytest.approx(0.200)
    assert all(p1 > p2 for p1, p2 in zip([EXACT_POWER_NW, *powers], powers))
    with pytest.raises(ParameterError):
        build_truncation_multiplier(8)


def test_exact_multiplier_has_zero_error_stats():
    stats = error_stats(build_exact_multiplier())
    assert stats.error_probability == 0.0
    assert stats.mean_abs_error == 0.0
    assert stats.max_abs_error == 0


def test_error_stats_consistency_is_enforced():
    with pytest.raises(ParameterError):
        ErrorStats(error_probability=0.0, mean_abs_error=1.0, max_abs_error=3)


def test_per_op_saving_reproduces_reference_column():
    assert list(REFERENCE_MULTIPLIERS)[0] == EXACT_NAME
    for name, entry in REFERENCE_MULTIPLIERS.items():
        assert entry.name == name
        assert per_op_saving(entry) == pytest.approx(entry.saving_pct, abs=0.1)
    assert per_op_saving(build_exact_multiplier()) == 0.0


def test_multiplier_validation():
    lut = _independent_exact_table()
    with pytest.raises(ParameterError):
        AxMultiplier(name="", power_nw=0.4, lut=lut)
    for power_nw in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            AxMultiplier(name="x", power_nw=power_nw, lut=lut)
    with pytest.raises(ParameterError):
        AxMultiplier(name="x", power_nw=0.4, lut=lut[:100])
    with pytest.raises(ParameterError):
        AxMultiplier(name="x", power_nw=0.4, lut=lut.astype(np.int32))


def test_lut_round_trip_is_byte_exact(tmp_path):
    m = build_truncation_multiplier(4)
    path = tmp_path / "trunc4.axm8"
    save_lut(m, path)
    assert path.stat().st_size == FILE_SIZE
    back = load_lut(path)
    assert back.name == m.name
    assert back.power_nw == m.power_nw
    assert np.array_equal(back.lut, m.lut)


def test_load_lut_rejects_corrupt_files(tmp_path):
    m = build_exact_multiplier()
    good = tmp_path / "good.axm8"
    save_lut(m, good)
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.axm8"
    bad_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        load_lut(bad_magic)

    short = tmp_path / "short.axm8"
    short.write_bytes(bytes(raw[:-10]))
    with pytest.raises(FormatError):
        load_lut(short)

    long = tmp_path / "long.axm8"
    long.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(FormatError):
        load_lut(long)

    not_utf8 = tmp_path / "not_utf8.axm8"
    not_utf8.write_bytes(bytes(raw[:5]) + b"\xff" + bytes(raw[6:]))
    with pytest.raises(FormatError, match="utf-8"):
        load_lut(not_utf8)


def test_builtin_multiplier_names():
    assert builtin_multiplier("exact").name == EXACT_NAME
    assert builtin_multiplier(EXACT_NAME).power_nw == EXACT_POWER_NW
    assert builtin_multiplier("trunc2").name == "trunc2"
    for bad in ("", "trunc", "trunc0", "trunc8", "mul8s_1L2J", "nonsense"):
        with pytest.raises(ParameterError):
            builtin_multiplier(bad)


def test_multipliers_compare_and_hash_by_identity():
    # A field-wise eq would compare the tables with ndarray ==, whose truth
    # value is ambiguous, and leave the class unhashable.
    m = builtin_multiplier("trunc2")
    twin = builtin_multiplier(m.name)
    assert m == m
    assert m != twin
    assert {m} == {m, m} and len({m, twin}) == 2
