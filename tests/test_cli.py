"""Configuration handling, random data, and the command-line entry points."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import torusnls
from torusnls import ConfigError, SpectralField, project_away, sobolev_norm
from torusnls.cli import (
    RunConfig,
    _parse_ell,
    build_config,
    cmd_check,
    cmd_figures,
    cmd_simulate,
    cmd_sweep,
    main,
    random_initial_datum,
)


def test_build_config_defaults():
    cfg = build_config(None, {})
    assert cfg.d == 1 and cfg.K == 16 and cfg.ell == (0,)
    assert cfg.lam == -1 and cfg.rho2 == 0.4 and cfg.h == 0.04
    assert cfg.scheme == "lie-trotter"
    assert cfg.n_steps == 250000 and cfg.horizon == pytest.approx(1e4)
    assert cfg.s == 5.0 and cfg.epsilon == 0.01 and cfg.seed == 1
    assert cfg.N == 5 and cfg.s2 == 25.0  # s2 defaults to 5N
    assert cfg.rho == pytest.approx(math.sqrt(0.4), rel=1e-16)


def test_build_config_merge_order():
    cfg = build_config({"h": 0.02, "N": 2}, {"h": 0.05})
    assert cfg.h == 0.05  # flags beat the file
    assert cfg.N == 2 and cfg.s2 == 10.0
    assert cfg.n_steps == round(1e4 / 0.05)


def test_build_config_steps_and_horizon():
    assert build_config(None, {"horizon": 100.0}).n_steps == 2500
    assert build_config(None, {"steps": 7}).n_steps == 7
    with pytest.raises(ConfigError):
        build_config(None, {"steps": 7, "horizon": 100.0})
    for horizon in (1e308, math.nan):
        with pytest.raises(ConfigError, match="^horizon .* gives no finite step count"):
            build_config(None, {"horizon": horizon, "h": 1e-10})


def test_build_config_bool_fields():
    # only a JSON boolean or its spelling: bool("false") would be True
    assert build_config({"exhaustive": "false"}, {}).exhaustive is False
    assert build_config({"exhaustive": "true"}, {}).exhaustive is True
    assert build_config({"exhaustive": True}, {}).exhaustive is True
    assert build_config({"exhaustive": False}, {}).exhaustive is False
    for value in ("False", "yes", "", 0, 1, [True]):
        with pytest.raises(ConfigError, match="exhaustive must be true or false"):
            build_config({"exhaustive": value}, {})


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        build_config({"stepsize": 0.01}, {})


def test_run_config_and_build_config_agree():
    # RunConfig holds every default; build_config only parses and merges
    cases = [
        ({}, {}),
        ({"h": 0.05}, {"h": 0.05}),
        ({"N": 2}, {"N": 2}),
        ({"ell": (17,)}, {"ell": 17}),
        ({"d": 2}, {"d": 2}),
    ]
    for fields_, keys in cases:
        assert RunConfig(**fields_) == build_config(None, keys)
    assert RunConfig(h=0.05).n_steps == 200000
    assert RunConfig(N=2).s2 == 10.0
    assert RunConfig(ell=(17,)).ell == (-15,)  # mod-reduced into the grid
    assert RunConfig(d=2).ell == (0, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(lam=0)
    with pytest.raises(ConfigError):
        RunConfig(rho2=-1.0)
    with pytest.raises(ConfigError, match="carrier mass budget"):
        random_initial_datum(RunConfig(epsilon=0.7))  # >= rho = sqrt(0.4)
    with pytest.raises(ConfigError):
        RunConfig(scheme="euler")
    with pytest.raises(ConfigError):
        RunConfig(d=2, ell=(0,))
    with pytest.raises(ConfigError):
        RunConfig(cadence=0)
    with pytest.raises(ConfigError):
        RunConfig(h=0.0)
    with pytest.raises(ConfigError, match="h = 1e-320 is too small"):
        RunConfig(h=1e-320)  # the default horizon over h is infinite
    with pytest.raises(ConfigError, match="^N is too large"):
        RunConfig(N=10**400)  # s2 = 5N would not fit a float
    for key in ("rho2", "h", "epsilon", "c2", "delta2", "s2", "s"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"^{key} must be finite"):
                RunConfig(**{key: value})
    # int() would truncate a fraction and turn a bool into 0 or 1; a value
    # int() or float() rejects is named by its key, the horizon's included
    for key, value in (("K", 2.7), ("steps", 100.9), ("N", 5.5), ("K", True), ("h", True),
                       ("K", "2.7"), ("h", "abc"), ("horizon", True), ("horizon", [1])):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            build_config(None, {key: value})
    # numpy indexes at most np.intp-many coefficients; a larger grid is refused
    # by its d before any d-long tuple or array is built
    tracemalloc.start()
    try:
        for d, K in ((65, 16), (70, 16), (10**9, 16), (10**20, 16), (3, 2**31), (63, 1)):
            with pytest.raises(ConfigError, match=f"^d = {d} with K = {K} gives"):
                build_config(None, {"d": d, "K": K})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert RunConfig(d=62, K=1).ell == (0,) * 62  # 2^62 coefficients fit; none is built


def test_parse_ell():
    assert _parse_ell("0") is None  # scalar zero: the origin in any dimension
    assert build_config(None, {"d": 2, "ell": "0"}).ell == (0, 0)
    assert _parse_ell([1, 2]) == (1, 2)
    assert _parse_ell(3) == (3,)
    with pytest.raises(ConfigError):
        build_config(None, {"d": 2, "ell": "1,2,3"})
    with pytest.raises(ConfigError):
        _parse_ell("x")
    # each component follows the int-field rule: no bool, no fraction
    assert _parse_ell([3.0]) == (3,)
    for raw in (True, [True], [1.7], ["a"], "1,x"):
        with pytest.raises(ConfigError, match="^ell components must be int"):
            build_config(None, {"ell": raw})


def test_random_datum_properties():
    cfg = build_config(None, {})
    u = random_initial_datum(cfg)
    again = random_initial_datum(cfg)
    assert np.array_equal(u.coeffs, again.coeffs)
    assert u.mass() == pytest.approx(0.4, rel=1e-14)
    dist = sobolev_norm(project_away(u, cfg.ell), cfg.s)
    assert dist == pytest.approx(cfg.epsilon, rel=1e-14)
    carrier = u.coeff(cfg.ell)
    assert carrier.imag == 0.0 and carrier.real > 0.0

    other = random_initial_datum(build_config(None, {"seed": 2}))
    assert not np.array_equal(u.coeffs, other.coeffs)


def test_random_datum_zero_epsilon():
    u = random_initial_datum(build_config(None, {"epsilon": 0.0}))
    c = u.coeffs.copy()
    c[u.grid.index_of((0,))] = 0.0
    assert np.all(c == 0.0)
    assert u.coeff((0,)) == pytest.approx(math.sqrt(0.4), rel=1e-16)


def test_cmd_check_passes(capsys):
    cfg = build_config(None, {"N": 2})
    assert cmd_check(cfg) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["assumption1"]["holds"] is True
    assert payload["assumption1"]["c1_certified"] == 0.20006397724392488
    assert payload["assumption2"]["holds"] is True
    assert payload["cfl_satisfied"] is False  # 0.04 exceeds the CFL bound
    assert payload["parameters"]["ell"] == [0]
    timing = payload["timing"]
    assert timing["assumption2_s"] > 0.0
    assert timing["vectors_per_s"] == pytest.approx(
        payload["assumption2"]["n_vectors"] / timing["assumption2_s"], rel=1e-12
    )


def test_cmd_check_reports_environment(tmp_path, capsys):
    assert cmd_check(build_config(None, {"N": 2})) == 0
    environment = json.loads(capsys.readouterr().out)["environment"]
    assert environment == {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    cfg = build_config(None, {"K": 4, "N": 2, "steps": 2, "out": str(tmp_path)})
    assert cmd_simulate(cfg) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "nls_lie-trotter_h0.04_K4_seed1_meta.json").read_text())
    assert meta["environment"] == environment


def test_cmd_check_fails_on_unstable_step(capsys):
    cfg = build_config(None, {"N": 2, "h": 0.042})
    assert cmd_check(cfg) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["assumption1"]["holds"] is False
    assert payload["assumption2"] == "skipped"
    assert payload["timing"] is None
    assert payload["max_growth"] == 1.0146405598691435


def test_cmd_simulate_outputs(tmp_path, capsys):
    cfg = build_config(None, {
        "K": 8, "N": 2, "steps": 20, "cadence": 10, "out": str(tmp_path),
    })
    assert cmd_simulate(cfg) == 0
    runid = "nls_lie-trotter_h0.04_K8_seed1"
    assert capsys.readouterr().out.startswith(f"{runid}: 20 steps done")
    meta = json.loads(open(tmp_path / f"{runid}_meta.json").read())
    assert meta["instability"]["verdict"] is False
    assert meta["seed"] == 1 and meta["scheme"] == "lie-trotter"
    series = list(csv.reader(open(tmp_path / f"{runid}_series.csv")))
    assert len(series) == 1 + 3  # header plus steps 0, 10, 20
    assert os.path.exists(tmp_path / f"{runid}_spectrum.csv")


def test_cmd_simulate_builds_one_plane_wave_context(tmp_path, monkeypatch, capsys):
    # the run's one FrequencyTable comes through the cli attribute and is the
    # very object the recorder's diagonalizers are built from
    import torusnls.cli
    import torusnls.diagnostics

    real_table = torusnls.cli.build_frequency_table
    real_diagonalizers = torusnls.diagnostics.build_diagonalizers
    tables, diagonalized = [], []

    def table_spy(*args):
        tables.append(real_table(*args))
        return tables[-1]

    def diagonalizers_spy(table):
        diagonalized.append(table)
        return real_diagonalizers(table)

    monkeypatch.setattr(torusnls.cli, "build_frequency_table", table_spy)
    monkeypatch.setattr(torusnls.diagnostics, "build_diagonalizers", diagonalizers_spy)
    cfg = build_config(None, {"K": 4, "N": 2, "steps": 10, "out": str(tmp_path)})
    assert cmd_simulate(cfg) == 0
    capsys.readouterr()
    assert len(tables) == 1 and len(diagonalized) == 1
    assert diagonalized[0] is tables[0]


def test_cmd_simulate_repeats_byte_for_byte(tmp_path, capsys):
    runs = []
    for name in ("a", "b"):
        cfg = build_config(None, {
            "d": 2, "K": 4, "N": 2, "steps": 30, "cadence": 1, "seed": 3,
            "scheme": "strang-nonlinear-outside", "out": str(tmp_path / name),
        })
        assert cmd_simulate(cfg, runid="rep") == 0
        runs.append(tmp_path / name)
    for suffix in ("series.csv", "spectrum.csv"):
        first, second = ((r / f"rep_{suffix}").read_bytes() for r in runs)
        assert first == second
    metas = [json.loads((r / "rep_meta.json").read_text()) for r in runs]
    for meta in metas:
        timing = meta.pop("timing")
        assert list(timing) == ["wall_s", "steps_per_s", "step_s", "observe_s", "emit_s"]
        assert all(v > 0.0 for v in timing.values())
        assert timing["wall_s"] > timing["step_s"] + timing["observe_s"] + timing["emit_s"]
        assert timing["steps_per_s"] == pytest.approx(30 / timing["step_s"], rel=1e-12)
    assert metas[0] == metas[1]
    env = metas[0]["environment"]
    assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
    assert env["python"].count(".") == 2


def test_cmd_simulate_counts_streamed_spectrum_rows_in_emit_s(tmp_path, monkeypatch, capsys):
    # the rows the recorder streams are formatted inside finalize() here (one
    # partial block), but their time is emission's, as the series' is
    import time

    from torusnls._serialize import FloatFormatter

    real_format = FloatFormatter.__call__

    def slow_format(self, values):
        time.sleep(0.1)
        return real_format(self, values)

    monkeypatch.setattr(FloatFormatter, "__call__", slow_format)
    cfg = build_config(None, {"K": 4, "N": 2, "steps": 10, "cadence": 1, "out": str(tmp_path)})
    assert cmd_simulate(cfg, runid="slow") == 0
    capsys.readouterr()
    timing = json.loads((tmp_path / "slow_meta.json").read_text())["timing"]
    assert timing["emit_s"] >= 0.2 and timing["observe_s"] < 0.1


def test_cmd_simulate_blow_up(tmp_path, monkeypatch, capsys):
    def nan_datum(config):
        grid = config.grid()
        return SpectralField(grid, np.full(grid.shape, np.nan, dtype=complex))

    monkeypatch.setattr("torusnls.cli.random_initial_datum", nan_datum)
    cfg = build_config(None, {"K": 4, "N": 2, "steps": 10, "out": str(tmp_path)})
    assert cmd_simulate(cfg, runid="boom") == 3
    assert "blow-up at step 0" in capsys.readouterr().out
    meta = json.loads(open(tmp_path / "boom_meta.json").read())
    assert meta["blow_up_step"] == 0 and meta["blow_up_time"] == 0.0
    assert "instability" not in meta  # no samples survived


def test_cmd_simulate_refuses_a_file_as_out_before_any_step(tmp_path, monkeypatch, capsys):
    def no_steps(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr("torusnls.cli.integrate", no_steps)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (taken, taken / "under"):
        assert main(["simulate", "--K", "4", "--steps", "10", "--out", str(out)]) == 2
        assert f"config error: --out '{out}' cannot be a directory" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def test_cmd_sweep_refuses_a_file_as_out_before_any_point(tmp_path, monkeypatch, capsys):
    def no_points(*args, **kwargs):
        raise AssertionError("a point was checked")

    monkeypatch.setattr("torusnls.cli._check_payload", no_points)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["sweep", "--N", "2", "--h", "0.04,0.042", "--out", str(taken)]) == 2
    assert f"config error: --out '{taken}' cannot be a directory" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def test_cmd_simulate_closes_a_partial_spectrum_on_an_error(tmp_path, monkeypatch, capsys):
    # an error other than a blow-up leaves the rows streamed so far, in whole
    # blocks, in a closed spectrum file, and no series or meta
    import torusnls.cli

    real_integrate = torusnls.cli.integrate

    def interrupted(datum, scheme, lam, n_steps, observer, cadence):
        def observe(n, u):
            if n == 70:
                raise KeyboardInterrupt
            observer(n, u)

        return real_integrate(datum, scheme, lam, n_steps, observer=observe, cadence=cadence)

    monkeypatch.setattr(torusnls.cli, "integrate", interrupted)
    cfg = build_config(None, {"K": 4, "N": 2, "steps": 100, "cadence": 1, "out": str(tmp_path)})
    # excinfo keeps the run's frames, and so its writer, alive: the rows are
    # on disk because the writer was closed, not because it was collected
    with pytest.raises(KeyboardInterrupt) as excinfo:
        cmd_simulate(cfg, runid="cut")
    assert excinfo.traceback
    rows = list(csv.reader(open(tmp_path / "cut_spectrum.csv")))
    assert rows[0] == ["t", "j", "abs_uj"] and len(rows) == 1 + 64 * 8
    assert sorted(os.listdir(tmp_path)) == ["cut_spectrum.csv"]


def test_cmd_sweep_rows(tmp_path):
    cfg = build_config(None, {"N": 2, "out": str(tmp_path)})
    assert cmd_sweep(cfg, "0.04,0.042", None) == 0
    rows = list(csv.reader(open(tmp_path / "sweep_summary.csv")))
    assert rows[0] == ["h", "rho", "assumption1", "c1", "assumption2", "max_growth"]
    assert [r[2] for r in rows[1:]] == ["true", "false"]
    assert float(rows[1][3]) == 0.20006397724392488
    assert rows[2][4] == "skipped"
    assert float(rows[2][5]) == 1.0146405598691435

    # epsilon plays no part in a sweep, so a small rho2 gets real verdicts
    assert cmd_sweep(cfg, "0.04", "1e-4,0.4") == 0
    rows = list(csv.reader(open(tmp_path / "sweep_summary.csv")))
    assert [r[2] for r in rows[1:]] == ["true", "true"]
    assert [r[4] for r in rows[1:]] == ["true", "true"]
    assert float(rows[1][1]) == 0.01


def test_cmd_sweep_error_rows(tmp_path):
    cfg = build_config(None, {"N": 2, "out": str(tmp_path)})
    assert cmd_sweep(cfg, "-1.0", "0.4,-0.4") == 0
    rows = list(csv.reader(open(tmp_path / "sweep_summary.csv")))
    assert len(rows) == 3
    for r in rows[1:]:
        assert r[2] == "error" and r[4] == "error"
        assert math.isnan(float(r[3])) and math.isnan(float(r[5]))
    assert math.isnan(float(rows[2][1]))  # negative rho2 has no real rho


def test_cmd_sweep_defaults_to_config_point(tmp_path):
    cfg = build_config(None, {"N": 2, "h": 0.044, "out": str(tmp_path)})
    assert cmd_sweep(cfg, None, None) == 0
    rows = list(csv.reader(open(tmp_path / "sweep_summary.csv")))
    assert len(rows) == 2
    assert float(rows[1][0]) == 0.044 and rows[1][2] == "true"


def test_cmd_figures_presets(monkeypatch):
    captured = {}

    def fake_simulate(cfg, runid=None):
        captured["cfg"] = cfg
        captured["runid"] = runid
        return 0

    monkeypatch.setattr("torusnls.cli.cmd_simulate", fake_simulate)
    cfg = build_config(None, {})
    assert cmd_figures(cfg, "fig2") == 0
    assert captured["cfg"].h == 0.044
    assert captured["cfg"].n_steps == round(1e4 / 0.044)
    assert captured["runid"] == "fig2"
    with pytest.raises(ConfigError):
        cmd_figures(cfg, "fig9")


def test_main_check_paths(tmp_path, capsys):
    assert main(["check", "--N", "2"]) == 0
    assert main(["check", "--N", "2", "--h", "0.042"]) == 1
    assert main(["check", "--N", "2", "--rho2", "1e-4"]) == 0  # rho = epsilon = 0.01
    capsys.readouterr()

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 2, "h": 0.044}))
    assert main(["check", "--config", str(path)]) == 0
    capsys.readouterr()


def test_main_config_errors(tmp_path, capsys):
    assert main(["check", "--rho2", "abc"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert main(["simulate", "--steps", "10", "--epsilon", "1.0"]) == 2
    assert main(["check", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert main(["check", "--h", "0.04,0.05"]) == 2
    assert "--h takes one value outside sweep" in capsys.readouterr().err
    assert main(["check", "--d", "70"]) == 2
    assert "config error: d = 70" in capsys.readouterr().err
    # an axis with no values is an error, not an empty sweep
    assert main(["sweep", "--h", "", "--rho2", "0.4", "--out", str(tmp_path)]) == 2
    assert "--h gives no values" in capsys.readouterr().err
    assert not (tmp_path / "sweep_summary.csv").exists()
    # config-file values that int() or float() would misread, a d that numpy
    # cannot index, or an N whose s2 = 5N overflows a float, name their key
    path = tmp_path / "bad.json"
    for key, value in (("horizon", True), ("K", "2.7"), ("h", "abc"), ("horizon", [1]),
                       ("ell", True), ("ell", [True]), ("ell", [1.7]), ("ell", ["a"]),
                       ("d", 10**20), ("N", 10**400)):
        path.write_text(json.dumps({key: value}))
        assert main(["check", "--config", str(path)]) == 2
        assert f"config error: {key}" in capsys.readouterr().err


def test_main_argparse_exits(capsys):
    assert main([]) == 2  # a subcommand is required
    assert main(["check", "--lambda", "0"]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_main_simulate_end_to_end(tmp_path):
    code = main([
        "simulate", "--K", "8", "--N", "2", "--steps", "20",
        "--cadence", "10", "--out", str(tmp_path),
        "--scheme", "strang-linear-outside", "--lambda", "1",
    ])
    assert code == 0
    runid = "nls_strang-linear-outside_h0.04_K8_seed1"
    meta = json.loads((tmp_path / f"{runid}_meta.json").read_text())
    assert meta["lambda"] == 1


def test_module_entry_point_runs_check():
    # python3 -m torusnls goes through __main__.py and entrypoint()
    src = str(Path(torusnls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "torusnls", "check", "--N", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["parameters"]["s2"] == 10.0
