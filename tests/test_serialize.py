"""The vectorized float formatter against format_float, cell for cell."""

import numpy as np
import pytest

import torusnls._serialize as serialize
from torusnls._serialize import FloatFormatter, format_float

SIZE = 4096


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the formatter hands to format_float, in call order."""
    seen = []

    def counted(v):
        seen.append(v)
        return format_float(v)

    monkeypatch.setattr(serialize, "format_float", counted)
    return seen


def formatted(x, size=SIZE):
    """x through a FloatFormatter of size values per pass (the last partial)."""
    return FloatFormatter(size)(x)


def assert_matches_format_float(x):
    cells = formatted(x)
    want = [format_float(v).encode() for v in np.asarray(x, dtype=np.float64).tolist()]
    wrong = [(v, c, w) for v, c, w in zip(np.asarray(x).tolist(), cells, want) if c != w]
    assert len(cells) == len(want)
    assert wrong == []


def test_random_bit_patterns(rng):
    # every class of double: subnormals, negatives, infinities, NaN payloads
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_matches_format_float(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours(fallbacks):
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_matches_format_float(np.concatenate([x, -x]))
    # floor(log10|x|) is one too high for about half of these; the exponent
    # correction keeps them on the fast path.  What falls back in range is
    # the exact powers 1 to 1e22, whose product sits on 10^16 exactly, and
    # the one below 1e15, 999999999999999.875, an exact tie at 17 digits
    in_range = [v for v in fallbacks if 1e-280 <= abs(v) < 1e280]
    assert len(in_range) == 2 * 24


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, b"0"),
        (-0.0, b"-0"),
        (np.inf, b"Infinity"),
        (-np.inf, b"-Infinity"),
        (np.nan, b"NaN"),
        # an exact tie at the 17th digit: ties go to even
        (123456789012345.125, b"123456789012345.12"),
        (99999999999999999.0, b"1e+17"),
        # the boundaries between the fixed and the scientific form
        (1e-5, b"1.0000000000000001e-05"),
        (1e-4, b"0.0001"),
        (9.9999999999999995e-05, b"9.9999999999999991e-05"),
        (1e16, b"10000000000000000"),
        (1e17, b"1e+17"),
    ],
)
def test_edge_values(value, text):
    assert format_float(value).encode() == text
    assert formatted([value, 0.5], size=2) == [text, b"0.5"]


def test_fast_path_handles_typical_magnitudes(rng, fallbacks):
    """Almost no value in [1e-20, 10] falls back to format_float (a kernel
    that always fell back would be right, and slow)."""
    x = 10.0 ** rng.uniform(-20.0, 1.0, size=10**5)
    assert_matches_format_float(x)
    assert len(fallbacks) <= 5


def test_cells_do_not_depend_on_the_pass_size(rng, fallbacks):
    """Passes of 1, 7, 511, 513, 2048 and 4097 values give the same cells:
    gather chunks of 512 that start inside a pass, and short last chunks
    and passes, the values that fall back among them."""
    x = np.concatenate([
        rng.normal(size=5000) * 10.0 ** rng.uniform(-30.0, 30.0, size=5000),
        [0.0, -0.0, np.inf, -np.nan, 123456789012345.125, 1e300, -1e-300, 5e-324],
    ])
    rng.shuffle(x)
    want = [format_float(v).encode() for v in x.tolist()]
    for size in (1, 7, 511, 513, 2048, 4097):
        assert formatted(x, size=size) == want, size
    # the eight planted values fall back at every size
    assert len(fallbacks) >= 6 * 8
