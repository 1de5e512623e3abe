"""Config-file driven experiment setup and batch drivers.

Configs are INI files.  Every key is declared in a schema with a parser and
a default; unknown sections or keys are hard errors, as are malformed
values.  After loading, the fully resolved configuration (defaults filled
in, overrides applied) can be rendered back to canonical bytes, so a run
directory always carries an exact, diffable record of what it ran.

Example::

    [grid]
    shape = 65 65 1
    extents = 3.141592653589793 3.141592653589793 1.0

    [scheme]
    epsilon = 0.05
    delta = 0.01
    t_end = 0.5

    [initial]
    preset = vortex

    [sweep]            # only read by the sweep driver
    parameter = scheme.delta
    values = 0.1 0.01 0.001
"""

from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constitutive import ConstitutiveLaw, make_standard_law, validate_hypotheses
from .diagnostics import (
    artificial_pressure_monitor,
    record,
    write_records_csv,
)
from .errors import ConfigError
from .fieldops import divergence
from .grid import Grid
from .snapshots import write_snapshot
from .solver import SchemeParams, ensure_compatible, mollify_initial_data, run

__all__ = [
    "Scenario",
    "SweepSpec",
    "load_scenario",
    "resolved_config_bytes",
    "initial_fields",
    "run_scenario",
    "sweep_scenarios",
]


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"not a number: {raw!r}") from exc


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {raw!r}") from exc


def _parse_int3(raw: str) -> tuple:
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"expected three integers, got {raw!r}")
    return tuple(_parse_int(p) for p in parts)


def _parse_float3(raw: str) -> tuple:
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"expected three numbers, got {raw!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_float_list(raw: str) -> tuple:
    return tuple(_parse_float(p) for p in raw.split())


def _parse_dt(raw: str):
    if raw.strip().lower() == "auto":
        return None
    return _parse_float(raw)


def _parse_str(raw: str) -> str:
    return raw.strip()


def _fmt_tuple(v) -> str:
    return " ".join(_fmt_float(x) if isinstance(x, float) else str(x) for x in v)


def _fmt_any(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, tuple):
        return _fmt_tuple(v)
    return str(v)


# (section, key) -> (parser, default); None default means required
_SCHEMA = {
    ("grid", "shape"): (_parse_int3, None),
    ("grid", "extents"): (_parse_float3, None),
    ("law", "gamma"): (_parse_float, 5.0 / 3.0),
    ("law", "alpha"): (_parse_float, 3.0),
    ("law", "nu"): (_parse_float, 1.0),
    ("law", "mu0"): (_parse_float, 1.0),
    ("law", "lam0"): (_parse_float, 0.0),
    ("law", "kappa0"): (_parse_float, 1.0),
    ("law", "cv0"): (_parse_float, 1.0),
    ("law", "pe0"): (_parse_float, 1.0),
    ("law", "pth0"): (_parse_float, 1.0),
    ("scheme", "epsilon"): (_parse_float, None),
    ("scheme", "delta"): (_parse_float, None),
    ("scheme", "beta"): (_parse_float, 4.0),
    ("scheme", "omega"): (_parse_float, 0.5),
    ("scheme", "dt"): (_parse_dt, "auto"),
    ("scheme", "safety"): (_parse_float, 0.4),
    ("scheme", "t_end"): (_parse_float, None),
    ("initial", "preset"): (_parse_str, "rest"),
    ("initial", "rho_amplitude"): (_parse_float, 0.1),
    ("initial", "theta_amplitude"): (_parse_float, 0.05),
    ("initial", "velocity_amplitude"): (_parse_float, 0.5),
    ("initial", "field_amplitude"): (_parse_float, 0.5),
    ("output", "record_every"): (_parse_int, 50),
    ("output", "snapshot_times"): (_parse_float_list, ()),
    ("output", "prefix"): (_parse_str, "run"),
    ("output", "max_steps"): (_parse_int, 2_000_000),
    ("sweep", "parameter"): (_parse_str, ""),
    ("sweep", "values"): (_parse_float_list, ()),
}

_SECTIONS = ("grid", "law", "scheme", "initial", "output", "sweep")
_PRESETS = ("rest", "vortex")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class Scenario:
    grid: Grid
    law: ConstitutiveLaw
    params: SchemeParams
    preset: str
    amplitudes: tuple  # (rho, theta, velocity, field)
    record_every: int
    snapshot_times: tuple
    prefix: str
    max_steps: int
    sweep: SweepSpec | None
    resolved: tuple  # ((section, key, canonical string), ...)


def parse_overrides(pairs) -> dict:
    out = {}
    for raw in pairs:
        if "=" not in raw:
            raise ConfigError(f"override must look like section.key=value, got {raw!r}")
        lhs, value = raw.split("=", 1)
        if "." not in lhs:
            raise ConfigError(f"override key must be section.key, got {lhs!r}")
        section, key = lhs.split(".", 1)
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown override target {section}.{key}")
        out[(section, key)] = value
    return out


def load_scenario(path, overrides=()) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    raw: dict = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[(section, key)] = value
    raw.update(parse_overrides(overrides))

    values: dict = {}
    for (section, key), (parser, default) in _SCHEMA.items():
        if (section, key) in raw:
            try:
                values[(section, key)] = parser(raw[(section, key)])
            except ConfigError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
        elif default is None and section not in ("sweep",):
            raise ConfigError(f"missing required config key {section}.{key}")
        else:
            # the "auto" sentinel stands for adaptive dt, i.e. None
            values[(section, key)] = None if default == "auto" else default

    for key in ("record_every", "max_steps"):
        if values[("output", key)] < 1:
            raise ConfigError(f"output.{key} must be >= 1, got {values[('output', key)]}")
    # an inf or nan law constant or scheme weight passes the range checks
    # below and overflows in the first step
    for (section, key), value in values.items():
        if section in ("law", "scheme") and isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {value}")
    try:
        grid = Grid(shape=values[("grid", "shape")], extents=values[("grid", "extents")])
        law = make_standard_law(
            gamma=values[("law", "gamma")],
            alpha=values[("law", "alpha")],
            nu=values[("law", "nu")],
            mu0=values[("law", "mu0")],
            lam0=values[("law", "lam0")],
            kappa0=values[("law", "kappa0")],
            cv0=values[("law", "cv0")],
            pe0=values[("law", "pe0")],
            pth0=values[("law", "pth0")],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not grid.active_axes:
        shape = " ".join(map(str, grid.shape))
        raise ConfigError(f"grid.shape {shape} has no active axis (one of at least 3 nodes)")
    # the scheme's bounds, the stability limit among them, rest on these
    failures = validate_hypotheses(law).failures
    if failures:
        raise ConfigError("the law fails its hypotheses: " + "; ".join(failures))
    try:
        params = SchemeParams(
            epsilon=values[("scheme", "epsilon")],
            delta=values[("scheme", "delta")],
            beta=values[("scheme", "beta")],
            omega=values[("scheme", "omega")],
            dt=values[("scheme", "dt")],
            safety=values[("scheme", "safety")],
            t_end=values[("scheme", "t_end")],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ensure_compatible(law, params)

    preset = values[("initial", "preset")]
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {_PRESETS}")

    sweep = None
    if values[("sweep", "parameter")]:
        target = values[("sweep", "parameter")]
        if "." not in target or tuple(target.split(".", 1)) not in _SCHEMA:
            raise ConfigError(f"sweep parameter {target!r} is not a config key")
        if not values[("sweep", "values")]:
            raise ConfigError("sweep.values must list at least one value")
        sweep = SweepSpec(target, values[("sweep", "values")])
    elif values[("sweep", "values")]:
        raise ConfigError("sweep.values given without sweep.parameter")

    resolved = tuple(
        (section, key, _fmt_any(values[(section, key)]))
        for (section, key) in _SCHEMA
        if not (section == "sweep" and not values[("sweep", "parameter")])
    )
    return Scenario(
        grid=grid,
        law=law,
        params=params,
        preset=preset,
        amplitudes=(
            values[("initial", "rho_amplitude")],
            values[("initial", "theta_amplitude")],
            values[("initial", "velocity_amplitude")],
            values[("initial", "field_amplitude")],
        ),
        record_every=values[("output", "record_every")],
        snapshot_times=values[("output", "snapshot_times")],
        prefix=values[("output", "prefix")],
        max_steps=values[("output", "max_steps")],
        sweep=sweep,
        resolved=resolved,
    )


def resolved_config_bytes(scenario: Scenario) -> bytes:
    lines = []
    current = None
    for section, key, value in scenario.resolved:
        if section != current:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {value}")
    return ("\n".join(lines) + "\n").encode()


def initial_fields(scenario: Scenario):
    g = scenario.grid
    a_rho, a_theta, a_vel, a_field = scenario.amplitudes
    rho = g.scalar_field(1.0)
    theta = g.scalar_field(1.0)
    u = g.vector_field()
    H = g.vector_field()
    if scenario.preset == "rest":
        return rho, u, theta, H

    # vortex: stream-function velocity and transverse field in the x-y plane
    X, Y, _ = g.mesh()
    Lx, Ly, _ = g.extents
    xs, ys = np.pi * X / Lx, np.pi * Y / Ly
    bump = np.cos(xs) * np.cos(ys)
    rho += a_rho * bump
    theta += a_theta * bump
    u[0] = a_vel * (np.pi / Ly) * np.sin(xs) ** 2 * np.sin(2.0 * ys)
    u[1] = -a_vel * (np.pi / Lx) * np.sin(2.0 * xs) * np.sin(ys) ** 2
    H[0] = a_field * (np.pi / Ly) * np.sin(xs) ** 2 * np.sin(2.0 * ys)
    H[1] = -a_field * (np.pi / Lx) * np.sin(2.0 * xs) * np.sin(ys) ** 2
    H[2] = 0.5 * a_field * np.sin(xs) * np.sin(ys)
    return rho, u, theta, H


def _write_state_snapshots(outdir: Path, tag: str, grid: Grid, state) -> None:
    for name, arr in (
        ("rho", state.rho),
        ("u", state.u),
        ("theta", state.theta),
        ("H", state.H),
    ):
        write_snapshot(outdir / f"{tag}-{name}.field", grid, name, state.t, arr)


def run_scenario(scenario: Scenario, outdir) -> dict:
    """Integrate a scenario, leaving records, snapshots and a summary behind.

    Partial records are flushed even when the run aborts, so a failed run
    still leaves evidence on disk.
    """
    grid, law, params = scenario.grid, scenario.law, scenario.params
    # initial data the scheme rejects leaves no directory behind
    state0, moll = mollify_initial_data(grid, law, params, *initial_fields(scenario))

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = scenario.prefix
    (outdir / f"{prefix}-resolved.ini").write_bytes(resolved_config_bytes(scenario))

    records = []

    def observer(step_idx, state, incidents):
        records.append(record(grid, law, params, state, incidents))

    try:
        res = run(
            grid,
            law,
            params,
            state0,
            record_every=scenario.record_every,
            observer=observer,
            snapshot_times=scenario.snapshot_times,
            max_steps=scenario.max_steps,
        )
    finally:
        if records:
            write_records_csv(outdir / f"{prefix}-records.csv", records)

    for idx, snap in enumerate(res.snapshots):
        _write_state_snapshots(outdir, f"{prefix}-snap{idx:02d}", grid, snap)
    _write_state_snapshots(outdir, f"{prefix}-final", grid, res.final_state)

    final = res.final_state
    div_defect = grid.norm_l2(divergence(grid, final.H))
    h_norm = grid.norm_l2(final.H)
    summary = {
        "steps": res.steps,
        "t_final": final.t,
        "dt_min": res.dt_min,
        "dt_max": res.dt_max,
        "dt_last": res.dt_last,
        "mass_initial": records[0].mass,
        "mass_final": records[-1].mass,
        "mass_drift": abs(records[-1].mass - records[0].mass),
        "rho_min": records[-1].rho_min,
        "theta_min": records[-1].theta_min,
        "div_H_l2": div_defect,
        "div_H_rel": div_defect / h_norm if h_norm > 0.0 else 0.0,
        "velocity_clamp_nodes": res.incidents.velocity_clamp_nodes,
        "heat_floor_nodes": res.incidents.heat_floor_nodes,
        "density_raised_nodes": moll.rho_raised_nodes,
        "density_lowered_nodes": moll.rho_lowered_nodes,
    }
    if len(records) >= 2:
        monitor = artificial_pressure_monitor(records, params)
        summary["artificial_pressure_avg"] = monitor.time_average
    with open(outdir / f"{prefix}-summary.txt", "w") as fh:
        for key, value in summary.items():
            if isinstance(value, float):
                fh.write(f"{key} = {_fmt_float(value)}\n")
            else:
                fh.write(f"{key} = {value}\n")
    return summary


def _sweep_worker(job) -> tuple:
    config_path, overrides, outdir, value = job
    scenario = load_scenario(config_path, overrides)
    summary = run_scenario(scenario, outdir)
    return value, summary


def sweep_scenarios(config_path, outdir, *, threads: int = 1, overrides=()) -> list:
    """Run the sweep declared in the config, one subdirectory per value."""
    base = load_scenario(config_path, overrides)
    if base.sweep is None:
        raise ConfigError("config has no sweep section")
    outdir = Path(outdir)
    name = base.sweep.parameter.split(".")[-1]

    jobs = []
    taken = {}
    for value in base.sweep.values:
        tag = f"{name}-{value:g}"
        if tag in taken:
            raise ConfigError(
                f"sweep values {taken[tag]!r} and {value!r} would both write to {tag}"
            )
        taken[tag] = value
        job_overrides = tuple(overrides) + (
            f"{base.sweep.parameter}={_fmt_float(value)}",
        )
        jobs.append((str(config_path), job_overrides, str(outdir / tag), value))

    outdir.mkdir(parents=True, exist_ok=True)
    if threads <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        # imported here: loading it costs every mhdlab start-up ~16 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_worker, jobs))

    rows = []
    for value, summary in results:
        rows.append(
            {
                "value": value,
                "steps": summary["steps"],
                "artificial_pressure_avg": summary.get(
                    "artificial_pressure_avg", math.nan
                ),
                "mass_drift": summary["mass_drift"],
            }
        )
    with open(outdir / "sweep-summary.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["value", "steps", "artificial_pressure_avg", "mass_drift"])
        for row in rows:
            w.writerow(
                [
                    _fmt_float(row["value"]),
                    row["steps"],
                    _fmt_float(row["artificial_pressure_avg"]),
                    _fmt_float(row["mass_drift"]),
                ]
            )
    return rows
