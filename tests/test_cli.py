"""Command line behavior: dispatch, outputs, exit codes."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mhdlab.cli import main
from mhdlab.diagnostics import read_records_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mhdlab"

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


def _cfg(tmp_path, text=TINY):
    p = tmp_path / "case.ini"
    p.write_text(text)
    return str(p)


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", "--config", _cfg(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "FAIL" not in out


def test_validate_shipped_configs():
    assert main(["validate", "--config", str(CONFIGS / "vortex2d.ini")]) == 0
    assert main(["validate", "--config", str(CONFIGS / "sweep_delta.ini")]) == 0


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY + "\nbogus = 1\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


_UNDETAILED = {
    "law.mu0=0": "mu_bounds: 0 < mu_lo <= mu_hi",
    "law.mu0=-1": "mu_bounds: 0 < mu_lo <= mu_hi",
    "law.kappa0=-0.5": "kappa_bounds: 0 < kappa_lo <= kappa_hi",
    "law.cv0=-1": "cv_bounds: 0 < cv_lo <= cv_hi",
}


@pytest.mark.parametrize(
    "override",
    [
        "law.mu0=0",
        "law.mu0=-1",
        "law.kappa0=-0.5",
        "law.lam0=-0.5",
        "law.cv0=-1",
        "law.gamma=1.2",
        "law.alpha=1",
        "law.nu=-1",
        "grid.shape=2 9 1",
        "grid.extents=inf 1 1",
        "grid.extents=nan 1 1",
        "output.record_every=0",
        "output.max_steps=0",
    ],
)
def test_run_rejects_what_the_scheme_cannot_run(tmp_path, capsys, override):
    # each is a config error at load, before anything is written
    out = tmp_path / "out"
    args = ["run", "--config", str(CONFIGS / "sweep_delta.ini"), "--out", str(out)]
    for o in ("grid.shape=9 9 1", "scheme.t_end=0.01", override):
        args += ["--override", o]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if override in _UNDETAILED:
        # a failed check without a detail ends at its description
        assert err.endswith(f"the law fails its hypotheses: {_UNDETAILED[override]}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ("grid.shape=1 1 1", "grid.shape 1 1 1 has no active axis"),
        ("law.nu=inf", "law.nu must be finite, got inf"),
        ("law.kappa0=inf", "law.kappa0 must be finite, got inf"),
        ("law.gamma=nan", "law.gamma must be finite, got nan"),
        ("scheme.epsilon=inf", "scheme.epsilon must be finite, got inf"),
        ("scheme.t_end=inf", "scheme.t_end must be finite, got inf"),
        ("initial.rho_amplitude=2", "initial density must be non-negative"),
        ("initial.theta_amplitude=-2", "initial temperature must be strictly positive"),
        ("initial.velocity_amplitude=inf", "initial.velocity_amplitude must be finite, got inf"),
        ("initial.field_amplitude=nan", "initial.field_amplitude must be finite, got nan"),
        ("initial.rho_amplitude=nan", "initial.rho_amplitude must be finite, got nan"),
        ("output.snapshot_times=0.005 nan", "output.snapshot_times must be finite, got 0.005 nan"),
        ("output.snapshot_times=0", "output.snapshot_times must be positive, got 0.0"),
        ("output.snapshot_times=-1 0.005 0.5", "output.snapshot_times must be positive, got -1.0 0.005 0.5"),
        ("grid.extents=1e-9 1e-9 1", "initial field cannot be made divergence-free: divergence cleaning"),
        ("output.prefix=a/b", "output.prefix must be a plain file name, got 'a/b'"),
        ("output.prefix=", "output.prefix must be a plain file name, got ''"),
        ("output.prefix=.", "output.prefix must be a plain file name, got '.'"),
        ("output.prefix=..", "output.prefix must be a plain file name, got '..'"),
    ],
)
def test_run_rejects_empty_grids_non_finite_constants_and_bad_initial_data(
    tmp_path, capsys, override, message
):
    # each exits 2 and leaves no --out directory: the grid and the constants
    # are rejected at load, the initial data before the directory is made
    out = tmp_path / "out"
    args = ["run", "--config", str(CONFIGS / "sweep_delta.ini"), "--out", str(out)]
    for o in ("grid.shape=9 9 1", "scheme.t_end=0.01", override):
        args += ["--override", o]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "parameter, values, message",
    [
        ("initial.rho_amplitude", "2 0.1", "initial density must be non-negative"),
        ("initial.rho_amplitude", "0.1 2", "initial density must be non-negative"),
        ("scheme.delta", "0.1 1.5", "delta must lie in (0,1), got 1.5"),
    ],
    ids=["first-member-initial-data", "last-member-initial-data", "last-member-config"],
)
def test_rejected_sweep_leaves_no_out_directory(tmp_path, capsys, parameter, values, message):
    # every member is checked before the first job runs
    out = tmp_path / "out"
    args = ["sweep", "--config", str(CONFIGS / "sweep_delta.ini"), "--out", str(out)]
    overrides = ("grid.shape=9 9 1", "scheme.t_end=0.01", f"sweep.parameter={parameter}")
    for o in overrides + (f"sweep.values={values}",):
        args += ["--override", o]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", _cfg(tmp_path), "--out", str(out)]) == 0
    assert (out / "t-records.csv").is_file()
    assert "mass_drift" in capsys.readouterr().out


def test_oversized_dt_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            _cfg(tmp_path),
            "--out",
            str(out),
            "--override",
            "scheme.dt=1.0",
        ]
    )
    assert code == 3
    assert "stability limit" in capsys.readouterr().err


def test_step_budget_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            _cfg(tmp_path),
            "--out",
            str(out),
            "--override",
            "output.max_steps=2",
            "--override",
            "scheme.t_end=10.0",
        ]
    )
    assert code == 4
    assert "numerical abort" in capsys.readouterr().err
    # partial evidence still on disk
    assert (out / "t-records.csv").is_file()


def test_hopeless_run_ends_before_its_first_step(tmp_path, capsys):
    # its first step limit predicts about 1e12 steps, against a budget of
    # 2e6 that it would take half an hour to exhaust
    out = tmp_path / "out"
    overrides = ["law.kappa0=1e12", "grid.shape=9 9 1", "scheme.t_end=0.01"]
    argv = ["run", "--config", str(CONFIGS / "sweep_delta.ini"), "--out", str(out)]
    assert main(argv + [a for o in overrides for a in ("--override", o)]) == 4
    err = capsys.readouterr().err
    assert re.search(r"the first step limit \(kappa binds\), dt=\S+, predicts \d\.\de\+12 steps", err)
    # the step-0 record is on disk
    assert [r.t for r in read_records_csv(out / "sweep-records.csv")] == [0.0]


def test_low_transport_corner_runs_to_its_end(tmp_path, capsys):
    # the sound and Alfven speeds bind here; a limit that left them out
    # ended this run with exit 3 at t = 1.56, thermal content gone negative
    overrides = [
        "law.mu0=0.005", "law.nu=0.005", "law.kappa0=0.005",
        "scheme.epsilon=0.003125", "scheme.t_end=5",
    ]
    argv = ["run", "--config", str(CONFIGS / "sweep_delta.ini"), "--out", str(tmp_path / "out")]
    assert main(argv + [a for o in overrides for a in ("--override", o)]) == 0


def test_sweep_command(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        TINY + "\n[sweep]\nparameter = scheme.delta\nvalues = 0.1 0.01\n",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep-summary.csv").is_file()
    assert "pressure_avg" in capsys.readouterr().out


def test_mms_quick_command(tmp_path, capsys):
    out = tmp_path / "mms"
    assert main(["mms", "--out", str(out), "--quick"]) == 0
    assert (out / "mms-spatial.csv").is_file()
    assert (out / "mms-temporal.csv").is_file()
    assert "orders" in capsys.readouterr().out


def test_compactness_command(tmp_path, capsys):
    out = tmp_path / "comp"
    assert main(["compactness", "--out", str(out)]) == 0
    assert (out / "defect-table.csv").is_file()
    assert "flux_defect" in capsys.readouterr().out


def test_console_wiring_subprocess(tmp_path):
    cfg = _cfg(tmp_path)
    code = (
        "from mhdlab.cli import main; import sys; "
        "sys.exit(main(['validate', '--config', sys.argv[1]]))"
    )
    good = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True)
    assert good.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "missing.ini")],
        capture_output=True,
    )
    assert bad.returncode == 2
    assert b"config error" in bad.stderr


@pytest.mark.parametrize("lines", [0, 1])
def test_reader_that_closes_early_ends_the_run_cleanly(tmp_path, lines):
    # as `mhdlab run ... | head -1` does: the run's work stands, the rest of
    # its output goes nowhere, and it exits 0 with no traceback
    out = tmp_path / "out"
    argv = ["run", "--config", _cfg(tmp_path), "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "mhdlab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0, err
    assert "Traceback" not in err
    assert (out / "t-summary.txt").is_file()


def test_process_pool_sweep_writes_the_serial_bytes(tmp_path, capsys):
    # every file of every member and the summary, byte for byte
    argv = ["sweep", "--config", str(CONFIGS / "sweep_delta.ini")]
    for o in ("grid.shape=9 9 1", "scheme.t_end=0.01"):
        argv += ["--override", o]
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        assert main(argv + ["--out", str(out), "--threads", threads]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) > 3 and trees[0] == trees[1]


def test_cli_start_up_and_run_leave_scipy_unloaded(tmp_path):
    # scipy is a test-only dependency; loading it took 0.9 s of start-up
    cfg = _cfg(tmp_path, TINY.replace("shape = 9 7 1", "shape = 6 5 1"))
    code = (
        "import sys; from mhdlab.cli import main\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded(), loaded()\n"
        "assert main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "out")], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_package_source_imports_no_scipy():
    # the tests use scipy and sympy as independent oracles; the package never does
    modules = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.append((path.name, node.module))
    assert len({name for name, _ in modules}) > 10
    assert [m for m in modules if m[1].split(".")[0] in ("scipy", "sympy")] == []
