"""The package's public surface: every exported name resolves, and every
value type compares without raising."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import torusnls
from torusnls import (
    Grid,
    SpectralField,
    TrajectoryRecorder,
    build_diagonalizers,
    build_frequency_table,
    super_actions,
    u_to_xi,
)

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(torusnls.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", ["torusnls"] + [f"torusnls.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_types_holding_arrays_compare_by_identity():
    # a generated __eq__ would compare their ndarray fields, whose truth value
    # is ambiguous, and its __hash__ would hash them; Grid keeps value equality
    rho = math.sqrt(0.4)

    def build():
        grid = Grid(K=4)
        table = build_frequency_table(h=0.04, rho=rho, lam=-1, ell=(0,), grid=grid)
        ctx = build_diagonalizers(table)
        c = np.zeros(grid.shape, dtype=complex)
        c[grid.index_of((1,))] = 0.01
        c[grid.index_of((0,))] = math.sqrt(0.4 - 1e-4)
        u = SpectralField(grid, c)
        xi = u_to_xi(u, ctx)
        rec = TrajectoryRecorder(table, s=5.0)
        rec(0, u)
        return table, ctx, u, xi, super_actions(xi), rec.finalize()

    for a, b in zip(build(), build()):
        assert a == a and a != b, type(a).__name__
        assert hash(a) == hash(a) and len({a, b}) == 2
    assert Grid(K=4) == Grid(K=4) and hash(Grid(K=4)) == hash(Grid(K=4))
