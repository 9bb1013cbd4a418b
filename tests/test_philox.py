"""The package's own Philox normal stream against numpy.random, its oracle.

torusnls._philox must return the bits of
numpy.random.Generator(numpy.random.Philox(seed)).standard_normal(n) without
importing numpy.random; the tests import it freely.
"""

import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import torusnls
from torusnls import _philox

SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 5]
SIZES = [1, 2, 3, 4, 5, 511, 512, 513, 65536]


def _numpy_normals(seed, n):
    return np.random.Generator(np.random.Philox(seed)).standard_normal(n)


@pytest.mark.parametrize("seed", SEEDS)
def test_key_and_words_match_numpy(seed):
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert _philox.philox_key(seed) == tuple(int(k) for k in key)
    words = np.random.Philox(seed).random_raw(4 * 9)
    assert np.array_equal(_philox.philox_words(_philox.philox_key(seed), 1, 9), words)


@pytest.mark.parametrize("seed", SEEDS)
def test_standard_normal_matches_numpy_bit_for_bit(seed):
    for n in SIZES:
        got = _philox.standard_normal(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == _numpy_normals(seed, n).tobytes(), (seed, n)


def _reference_walk(seed, n):
    """numpy's random_standard_normal, one word at a time over Philox's raw words.

    Returns the n normals and a count of the paths taken: "fast", "fi accept",
    "fi reject" and "tail" (the idx == 0 layer beyond r).
    """
    wi, ki, fi = (t.tolist() for t in _philox._tables())
    words = iter(np.random.Philox(seed).random_raw(2 * n + 64).tolist())
    paths = Counter()
    out = []
    while len(out) < n:
        r = next(words)
        idx = r & 0xFF
        r >>= 8
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * wi[idx]
        if r & 1:
            x = -x
        if rabs < ki[idx]:
            paths["fast"] += 1
            out.append(x)
        elif idx == 0:
            while True:
                xx = -_philox._ZIGGURAT_INV_R * math.log1p(-(next(words) >> 11) * 2.0**-53)
                yy = -math.log1p(-(next(words) >> 11) * 2.0**-53)
                if yy + yy > xx * xx:
                    tail = _philox._ZIGGURAT_R + xx
                    out.append(-tail if (rabs >> 8) & 1 else tail)
                    paths["tail"] += 1
                    break
        elif (fi[idx - 1] - fi[idx]) * ((next(words) >> 11) * 2.0**-53) + fi[idx] < math.exp(
            -0.5 * x * x
        ):
            paths["fi accept"] += 1
            out.append(x)
        else:
            paths["fi reject"] += 1
    return np.array(out), paths


def test_tested_draws_take_every_slow_path():
    # the four largest draws of seeds 0-3 alone hit the fi rejection and the
    # tail many times; a scalar transcription of numpy's loop agrees with both
    paths = Counter()
    for seed in range(4):
        ref, counts = _reference_walk(seed, 65536)
        paths += counts
        assert ref.tobytes() == _numpy_normals(seed, 65536).tobytes()
        assert ref.tobytes() == _philox.standard_normal(seed, 65536).tobytes()
    assert paths["fi reject"] > 100 and paths["fi accept"] > 100 and paths["tail"] > 10, paths


@pytest.mark.parametrize("seed", range(8))
def test_walk_over_too_few_words_gives_none_or_the_exact_prefix(seed):
    # standard_normal retries with twice the words when a walk runs out
    key = _philox.philox_key(seed)
    ref = _numpy_normals(seed, 40)
    results = [_philox._walk(key, 40, count) for count in range(1, 60)]
    assert results[0] is None and results[-1] is not None
    for got in results:
        assert got is None or got.tobytes() == ref.tobytes()


def test_simulate_does_not_import_numpy_random(tmp_path):
    src = str(Path(torusnls.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from torusnls.cli import main\n"
        f"assert main(['simulate', '--K', '4', '--steps', '20', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
_MEMBER = "src_distributions_distributions.c.o"


@pytest.mark.skipif(
    not _ARCHIVE.is_file() or not all(shutil.which(t) for t in ("ar", "nm", "objdump")),
    reason="needs numpy's libnpyrandom.a and binutils (ar, nm, objdump)",
)
def test_tables_are_numpys(tmp_path):
    # the embedded tables are the .rodata bytes of numpy's ziggurat tables
    obj = tmp_path / _MEMBER
    obj.write_bytes(subprocess.run(["ar", "p", str(_ARCHIVE), _MEMBER],
                                   capture_output=True, check=True).stdout)
    headers = subprocess.run(["objdump", "-h", str(obj)], capture_output=True, text=True,
                             check=True).stdout.split()
    rodata = int(headers[headers.index(".rodata") + 4], 16)  # its file offset
    symbols = {}
    for line in subprocess.run(["nm", str(obj)], capture_output=True, text=True,
                               check=True).stdout.splitlines():
        parts = line.split()
        if len(parts) == 3:
            symbols[parts[2]] = int(parts[0], 16)
    data = obj.read_bytes()
    for name, table in zip(("wi_double", "ki_double", "fi_double"), _philox._tables()):
        start = rodata + symbols[name]
        shipped = np.frombuffer(data[start:start + 256 * 8], dtype="<u8")
        assert np.array_equal(shipped, table.view(np.uint64)), name
