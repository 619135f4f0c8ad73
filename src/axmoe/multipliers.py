"""8-bit signed approximate multipliers emulated as exhaustive lookup tables.

A multiplier is a function f(a, b) on signed 8-bit operands. Nothing is
assumed about f beyond its table: commutativity and zero-annihilation hold
for the exact multiplier but not in general, so the table stores all
256 x 256 = 65536 products and callers must not fold (a, b) with (b, a).

Table layout: index (a + 128) * 256 + (b + 128), int16 products. The same
layout is used on disk (magic "AXM8", see save_lut/load_lut).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericError, ParameterError
from .files import replace_file

INT8_MIN, INT8_MAX = -128, 127
TABLE_SIZE = 256 * 256

MAGIC = b"AXM8"
VERSION = 1
NAME_BYTES = 32
# magic(4) + version(1) + name(32) + power float64(8) + 65536 int16 products
FILE_SIZE = 4 + 1 + NAME_BYTES + 8 + TABLE_SIZE * 2


@dataclass(frozen=True)
class ReferenceEntry:
    """Published datasheet figures for one design of the mul8s family."""

    name: str
    power_nw: float
    saving_pct: float
    error_probability_pct: float


# Datasheet power and error figures for the EvoApproxLib 8-bit signed family,
# by name in datasheet order. Savings are relative to mul8s_1KV6 and are
# re-derived (not read) at runtime by per_op_saving.
REFERENCE_MULTIPLIERS = {e.name: e for e in (
    ReferenceEntry("mul8s_1KV6", 0.425, 0.0, 0.0),
    ReferenceEntry("mul8s_1KV8", 0.422, 0.7, 50.0),
    ReferenceEntry("mul8s_1KV9", 0.410, 3.5, 68.75),
    ReferenceEntry("mul8s_1KVA", 0.391, 8.0, 81.25),
    ReferenceEntry("mul8s_1KVM", 0.369, 13.2, 49.80),
    ReferenceEntry("mul8s_1KVP", 0.363, 14.6, 74.8),
    ReferenceEntry("mul8s_1L2J", 0.301, 29.2, 74.61),
    ReferenceEntry("mul8s_1L2L", 0.200, 52.9, 93.16),
)}

EXACT_NAME = "mul8s_1KV6"
EXACT_POWER_NW = REFERENCE_MULTIPLIERS[EXACT_NAME].power_nw


def lut_index(a, b):
    """Table index for operand pair (a, b); accepts scalars or arrays. The
    index is np.intp, numpy's own index type, so a gather reads it without
    a converted copy."""
    return (np.asarray(a, dtype=np.intp) + 128) * 256 + (np.asarray(b, dtype=np.intp) + 128)


@dataclass(frozen=True)
class ErrorStats:
    """Exhaustive error figures of a multiplier against the exact product."""

    error_probability: float  # fraction of the 65536 pairs with a wrong product
    mean_abs_error: float
    max_abs_error: int

    def __post_init__(self):
        zero = self.error_probability == 0.0
        if zero != (self.mean_abs_error == 0.0) or zero != (self.max_abs_error == 0):
            raise ParameterError("inconsistent error stats: zero probability requires zero errors")


@dataclass(frozen=True, eq=False)
class AxMultiplier:
    """A named 8-bit signed multiplier backed by its exhaustive product table.
    Two multipliers are equal only when they are the same object."""

    name: str
    power_nw: float
    lut: np.ndarray  # (65536,) int16, index (a+128)*256+(b+128)

    def __post_init__(self):
        if not self.name:
            raise ParameterError("multiplier name must be non-empty")
        if len(self.name.encode("utf-8")) > NAME_BYTES:
            raise ParameterError(f"multiplier name exceeds {NAME_BYTES} bytes: {self.name!r}")
        if not 0 < self.power_nw < np.inf:
            raise ParameterError(f"power must be finite and positive, got {self.power_nw}")
        if self.lut.shape != (TABLE_SIZE,) or self.lut.dtype != np.int16:
            raise ParameterError("lut must be a (65536,) int16 array")
        self.lut.setflags(write=False)

    # Values derived from the table for the LUT kernels. Each is computed on
    # first use and kept on this object, so a table never runs on another
    # table's values, and construction stays cheap for callers that never
    # multiply. A rank-1 table's kernel reads its factors through the pair
    # tables of `rank1_pairs` (512 KiB each); any other table's kernels read
    # `lut_f32` (256 KiB).

    @functools.cached_property
    def max_abs(self) -> int:
        """The largest product magnitude, max |lut|."""
        return int(np.abs(self.lut.astype(np.int32)).max())

    @functools.cached_property
    def lut_f32(self) -> np.ndarray:
        """The table as float32, which holds every int16 product exactly."""
        return _frozen(self.lut.astype(np.float32))

    @functools.cached_property
    def rank1(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Reduced integer factors (f, g, q) with lut[a, b] == q * f[a] * g[b]
        for every operand pair, or None when the table is not rank 1 (an
        all-zero table included).

        The column and row through the largest-magnitude entry p give
        lut * p == col * row, tested exactly in int64. f and g are col and
        row divided by their gcds, so gcd(f) == gcd(g) == 1, and
        q = gcd(col) * gcd(row) / p. q is an integer: the entries of f * g
        have gcd 1, and every entry of q * f * g is an integer. For the exact
        table f(a) = -a, g(b) = -b and q = 1.

        f and g are float32, which holds them exactly (|f|, |g| <= 2^15),
        and indexed by the operand's int8 bit pattern read as uint8,
        `codes.view(np.uint8)`."""
        table = self.lut.astype(np.int64).reshape(256, 256)
        a0, b0 = np.unravel_index(np.argmax(np.abs(table)), table.shape)
        p = int(table[a0, b0])
        col, row = table[:, b0], table[a0, :]
        if p == 0 or not np.array_equal(table * p, np.multiply.outer(col, row)):
            return None
        gcol, grow = int(np.gcd.reduce(col)), int(np.gcd.reduce(row))
        return _by_byte(col // gcol), _by_byte(row // grow), gcol * grow // p

    @functools.cached_property
    def rank1_pairs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The factors f and g of `rank1` looked up two codes at a time, or
        None when the table is not rank 1: for each factor v, a (65536,)
        uint64 table whose entry i holds the float32 pair
        (v[i & 255], v[i >> 8]). Two adjacent int8 codes read as one
        little-endian uint16 index it, and the entry, viewed as two float32,
        is their factors in order. g's table is f's own when g == f (exact
        and every truncN), so such a multiplier holds 512 KiB of them."""
        if self.rank1 is None:
            return None
        f, g, _ = self.rank1
        fp = _by_pair(f)
        return fp, fp if np.array_equal(f, g) else _by_pair(g)


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def _by_pair(v: np.ndarray) -> np.ndarray:
    """The (65536,) uint64 table of float32 pairs (v[i & 255], v[i >> 8]),
    built by broadcasting: no index array of the table's size."""
    t = np.empty((256, 256, 2), dtype=np.float32)
    t[:, :, 0] = v[None, :]
    t[:, :, 1] = v[:, None]
    return _frozen(t.view(np.uint64).reshape(-1))


def _by_byte(v: np.ndarray) -> np.ndarray:
    """Reorder a per-operand vector indexed a + 128 so the uint8 view of the
    int8 code a indexes it, as float32."""
    return _frozen(np.roll(v, 128).astype(np.float32))


def _operand_grids():
    ops = np.arange(INT8_MIN, INT8_MAX + 1, dtype=np.int32)
    return ops[:, None], ops[None, :]  # a varies over rows, b over columns


def _exact_table() -> np.ndarray:
    a, b = _operand_grids()
    return (a * b).astype(np.int16).ravel()


def build_exact_multiplier() -> AxMultiplier:
    """Exact signed 8-bit multiplier; the power baseline for savings figures."""
    return AxMultiplier(name=EXACT_NAME, power_nw=EXACT_POWER_NW, lut=_exact_table())


def _truncate_magnitude(v: np.ndarray, bits: int) -> np.ndarray:
    mag = np.abs(v)
    mag = (mag >> bits) << bits
    return np.sign(v) * mag


def build_truncation_multiplier(dropped_low_bits: int) -> AxMultiplier:
    """Synthetic multiplier that zeroes the lowest k bits of each operand's
    magnitude before multiplying exactly. k in [1, 7]. Its stand-in power
    figure is linear between the exact design (k=0) and the smallest
    reference design (k=7)."""
    k = int(dropped_low_bits)
    if not 1 <= k <= 7:
        raise ParameterError(f"dropped_low_bits must be in [1, 7], got {dropped_low_bits}")
    a, b = _operand_grids()
    lut = (_truncate_magnitude(a, k) * _truncate_magnitude(b, k)).astype(np.int16).ravel()
    smallest = min(e.power_nw for e in REFERENCE_MULTIPLIERS.values())
    power_nw = EXACT_POWER_NW - k * (EXACT_POWER_NW - smallest) / 7.0
    return AxMultiplier(name=f"trunc{k}", power_nw=power_nw, lut=lut)


def error_stats(m: AxMultiplier) -> ErrorStats:
    """Compare the full table against exact products."""
    diff = m.lut.astype(np.int32) - _exact_table().astype(np.int32)
    wrong = diff != 0
    return ErrorStats(
        error_probability=float(np.count_nonzero(wrong)) / TABLE_SIZE,
        mean_abs_error=float(np.abs(diff).mean()),
        max_abs_error=int(np.abs(diff).max()),
    )


def per_op_saving(design) -> float:
    """Per-operation power saving in percent of a multiplier or registry
    entry relative to the exact design."""
    saving = (1.0 - design.power_nw / EXACT_POWER_NW) * 100.0
    if not math.isfinite(saving):  # a finite but huge power overflows it
        raise NumericError(f"per-op saving of a {design.power_nw} nW multiplier is not finite")
    return saving


def save_lut(m: AxMultiplier, path) -> None:
    # the name field is zero-padded to NAME_BYTES
    header = struct.pack(f"<B{NAME_BYTES}sd", VERSION, m.name.encode("utf-8"), m.power_nw)
    replace_file(path, MAGIC + header + m.lut.astype("<i2").tobytes())


def load_lut(path) -> AxMultiplier:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, expected {MAGIC!r}")
    if len(blob) != FILE_SIZE:
        raise FormatError(f"{path}: expected {FILE_SIZE} bytes, got {len(blob)}")
    version = blob[4]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (power_nw,) = struct.unpack("<d", blob[5 + NAME_BYTES : 13 + NAME_BYTES])
    lut = np.frombuffer(blob[13 + NAME_BYTES :], dtype="<i2").astype(np.int16)
    try:
        name = blob[5 : 5 + NAME_BYTES].rstrip(b"\x00").decode("utf-8")
        return AxMultiplier(name=name, power_nw=power_nw, lut=lut)
    except (UnicodeDecodeError, ParameterError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def builtin_multiplier(name: str) -> AxMultiplier:
    """Construct a multiplier available without external table files.

    Supported: the exact design by name, and "trunc1".."trunc7".
    """
    if name == EXACT_NAME or name == "exact":
        return build_exact_multiplier()
    if name.startswith("trunc"):
        suffix = name[len("trunc") :]
        if suffix.isdigit():
            return build_truncation_multiplier(int(suffix))
    raise ParameterError(f"no builtin multiplier named {name!r}")
