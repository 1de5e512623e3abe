"""Scenario loading, presets, run driver and sweep driver."""

from pathlib import Path

import numpy as np
import pytest

from mhdlab.diagnostics import read_records_csv
from mhdlab.errors import ConfigError, NumericalAbort
from mhdlab.scenario import (
    initial_fields,
    load_scenario,
    resolved_config_bytes,
    run_scenario,
    sweep_scenarios,
)
from mhdlab.snapshots import read_snapshot

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = """
[grid]
shape = 9 7 1
extents = 1.0 1.0 1.0

[scheme]
epsilon = 0.05
delta = 0.1
t_end = 0.02

[initial]
preset = rest

[output]
record_every = 10
prefix = t
"""


def _write(tmp_path, text, name="case.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


def test_load_shipped_vortex_config():
    sc = load_scenario(CONFIGS / "vortex2d.ini")
    assert sc.grid.shape == (65, 65, 1)
    assert sc.preset == "vortex"
    assert sc.params.delta == 0.01
    assert sc.params.dt is None
    assert sc.law.nu == 0.1
    assert sc.snapshot_times == (0.25, 0.5)
    assert sc.sweep is None


def test_load_shipped_sweep_config():
    sc = load_scenario(CONFIGS / "sweep_delta.ini")
    assert sc.sweep is not None
    assert sc.sweep.parameter == "scheme.delta"
    assert sc.sweep.values == (0.1, 0.01, 0.001)


def test_resolved_bytes_deterministic_and_idempotent(tmp_path):
    sc1 = load_scenario(CONFIGS / "vortex2d.ini")
    sc2 = load_scenario(CONFIGS / "vortex2d.ini")
    blob = resolved_config_bytes(sc1)
    assert blob == resolved_config_bytes(sc2)
    # canonical output reloads to the same canonical output
    echo = _write(tmp_path, blob.decode(), "echo.ini")
    assert resolved_config_bytes(load_scenario(echo)) == blob


def test_unknown_key_rejected(tmp_path):
    p = _write(tmp_path, TINY + "\nwhatever = 1\n")
    with pytest.raises(ConfigError, match="unknown config key output.whatever"):
        load_scenario(p)


def test_unknown_section_rejected(tmp_path):
    p = _write(tmp_path, TINY + "\n[turbo]\nboost = 9\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_scenario(p)


def test_missing_required_key(tmp_path):
    p = _write(tmp_path, TINY.replace("epsilon = 0.05\n", ""))
    with pytest.raises(ConfigError, match="missing required config key scheme.epsilon"):
        load_scenario(p)


def test_bad_shape_value(tmp_path):
    p = _write(tmp_path, TINY.replace("shape = 9 7 1", "shape = 9 7"))
    with pytest.raises(ConfigError, match="three integers"):
        load_scenario(p)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(CONFIGS / "no-such.ini")


def test_overrides(tmp_path):
    p = _write(tmp_path, TINY)
    sc = load_scenario(p, overrides=("scheme.delta=0.05", "output.record_every=5"))
    assert sc.params.delta == 0.05
    assert sc.record_every == 5
    with pytest.raises(ConfigError, match="unknown override target"):
        load_scenario(p, overrides=("scheme.nope=1",))
    with pytest.raises(ConfigError, match="section.key=value"):
        load_scenario(p, overrides=("delta0.05",))


def test_unknown_preset(tmp_path):
    p = _write(tmp_path, TINY.replace("preset = rest", "preset = tornado"))
    with pytest.raises(ConfigError, match="unknown preset"):
        load_scenario(p)


def test_scheme_errors_surface_as_config_errors(tmp_path):
    p = _write(tmp_path, TINY.replace("delta = 0.1", "delta = 1.5"))
    with pytest.raises(ConfigError, match="delta"):
        load_scenario(p)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_rest_preset_fields(tmp_path):
    sc = load_scenario(_write(tmp_path, TINY))
    rho, u, theta, H = initial_fields(sc)
    assert float(np.min(rho)) == float(np.max(rho)) == 1.0
    assert float(np.max(np.abs(u))) == 0.0
    assert float(np.max(np.abs(H))) == 0.0
    assert float(np.min(theta)) == 1.0


def test_vortex_preset_fields():
    sc = load_scenario(CONFIGS / "vortex2d.ini")
    rho, u, theta, H = initial_fields(sc)
    assert float(np.min(rho)) == pytest.approx(0.9, abs=1e-12)
    assert float(np.max(rho)) == pytest.approx(1.1, abs=1e-12)
    # all four walls stress-free in both in-plane components
    for F in (u, H):
        for comp in range(3):
            assert float(np.max(np.abs(F[comp][0, :, :]))) <= 1e-12
            assert float(np.max(np.abs(F[comp][-1, :, :]))) <= 1e-12
            assert float(np.max(np.abs(F[comp][:, 0, :]))) <= 1e-12
            assert float(np.max(np.abs(F[comp][:, -1, :]))) <= 1e-12
    assert float(np.max(np.abs(H[2]))) > 0.0


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


def test_run_scenario_outputs(tmp_path):
    cfg = _write(tmp_path, TINY + "snapshot_times = 0.01\n")
    sc = load_scenario(cfg)
    out = tmp_path / "out"
    summary = run_scenario(sc, out)
    assert (out / "t-resolved.ini").is_file()
    assert (out / "t-summary.txt").is_file()
    recs = read_records_csv(out / "t-records.csv")
    assert recs[0].t == 0.0
    assert summary["mass_drift"] <= 1e-12
    assert summary["t_final"] == pytest.approx(0.02)
    assert 0.0 < summary["dt_last"] <= summary["dt_max"]
    assert "dt_last = " in (out / "t-summary.txt").read_text()
    for name in ("rho", "u", "theta", "H"):
        assert (out / f"t-final-{name}.field").is_file()
        assert (out / f"t-snap00-{name}.field").is_file()
    _, name, t_snap, arr = read_snapshot(out / "t-snap00-rho.field")
    assert name == "rho"
    assert t_snap >= 0.01
    assert arr.shape == (9, 7, 1)


def test_run_scenario_is_deterministic(tmp_path):
    cfg = _write(tmp_path, TINY)
    s1 = run_scenario(load_scenario(cfg), tmp_path / "a")
    s2 = run_scenario(load_scenario(cfg), tmp_path / "b")
    assert (tmp_path / "a" / "t-records.csv").read_bytes() == (
        tmp_path / "b" / "t-records.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "t-summary.txt").read_bytes() == (
        tmp_path / "b" / "t-summary.txt"
    ).read_bytes()
    assert s1 == s2


def test_partial_records_flushed_on_abort(tmp_path):
    cfg = _write(tmp_path, TINY + "max_steps = 3\n")
    sc = load_scenario(cfg, overrides=("scheme.t_end=10.0",))
    out = tmp_path / "out"
    with pytest.raises(NumericalAbort, match="step budget"):
        run_scenario(sc, out)
    recs = read_records_csv(out / "t-records.csv")
    assert len(recs) >= 1  # the step-0 record survived the abort


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

SWEEPY = TINY + """
[sweep]
parameter = scheme.delta
values = 0.1 0.01
"""


def test_sweep_runs_and_tabulates(tmp_path):
    cfg = _write(tmp_path, SWEEPY)
    out = tmp_path / "sweep"
    rows = sweep_scenarios(cfg, out)
    assert [r["value"] for r in rows] == [0.1, 0.01]
    assert (out / "delta-0.1" / "t-records.csv").is_file()
    assert (out / "delta-0.01" / "t-records.csv").is_file()
    assert (out / "sweep-summary.csv").is_file()
    assert rows[0]["artificial_pressure_avg"] > rows[1]["artificial_pressure_avg"]


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = _write(tmp_path, SWEEPY)
    serial = sweep_scenarios(cfg, tmp_path / "s1", threads=1)
    parallel = sweep_scenarios(cfg, tmp_path / "s2", threads=2)
    assert serial == parallel
    assert (tmp_path / "s1" / "sweep-summary.csv").read_bytes() == (
        tmp_path / "s2" / "sweep-summary.csv"
    ).read_bytes()


def test_sweep_rejects_colliding_directory_names(tmp_path):
    # 0.1 and 0.1000001 both format as delta-0.1 under :g
    cfg = _write(tmp_path, SWEEPY.replace("values = 0.1 0.01", "values = 0.1 0.01 0.1000001"))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="delta-0.1"):
        sweep_scenarios(cfg, out)
    assert not out.exists()


def test_sweep_requires_sweep_section(tmp_path):
    cfg = _write(tmp_path, TINY)
    with pytest.raises(ConfigError, match="no sweep section"):
        sweep_scenarios(cfg, tmp_path / "out")
