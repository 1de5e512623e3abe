#!/usr/bin/env python3
"""Which functions of src/mhdlab the command line entry points reach.

    python3 scripts/reach.py

Runs these commands in one process, with every t_end that the command
takes set to 0.01, and records every Python function they call
(sys.setprofile, call events only):

    mhdlab run          configs/vortex2d.ini on 9x9 and on 5x5x5
    mhdlab sweep        configs/sweep_delta.ini on 9x9
    mhdlab mms          --quick
    mhdlab compactness
    mhdlab validate     configs/vortex2d.ini

Then prints every function defined in src/mhdlab (methods and nested
functions count) that none of them reached, with its line count.  A
function may stay unreached only if ALLOWED names it, with the reason it
stays and a test that reaches it.  Exits 1 when an unreached function is
not allowed, or when an ALLOWED name no longer exists or is now reached,
so that the list stays exact.
"""

from __future__ import annotations

import ast
import contextlib
import io
import operator
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SRC = HERE / "src"
PACKAGE = SRC / "mhdlab"

# why an unreached function may stay in src/
ERROR = "an error path"
BENCHMARK = "a benchmark workload calls it"
TRACED = "the benchmark's tracer wraps it"
ACCEPTANCE = "the acceptance suite reaches it"
ORACLE = "the rhs oracle of tests/test_solver.py builds K with it"
READER = "the only reader of the .field format"


def roadmap(item: int) -> str:
    return f"ROADMAP item {item} will reach it"


# "module:qualified.name" -> (reason, a test that reaches it)
ALLOWED: dict[str, tuple[str, str]] = {}


def allow(reason: str, test: str, *names: str) -> None:
    ALLOWED.update((name, (reason, test)) for name in names)


THERMAL = "tests/test_acceptance.py::test_10_thermal_weak_lower_bound"
IDENTITY = "tests/test_acceptance.py::test_03_operator_identities"
PRIMITIVES = "tests/test_constitutive.py::test_primitive_forms_and_derivatives"
RHS = "tests/test_solver.py::test_rhs_bitwise_matches_reference"

allow(ERROR, "tests/test_constitutive.py::test_viscosity_without_a_range_is_refused",
      "constitutive:PowerSum.__repr__")
allow(ERROR, "tests/test_constitutive.py::test_tabulated_potentials_have_no_closed_form",
      "constitutive:Tabulated.__repr__")
allow(ERROR, "tests/test_solver.py::test_step_limits_name_the_binding_entry",
      "solver:StepLimits.binding")
allow(ERROR, "tests/test_solver.py::test_step_limits_need_closed_forms_of_the_pressures",
      "solver:_sound_speed_sq.refuse")
if hasattr(operator, "call"):
    # Python 3.10 has no operator.call, and there the commands reach _call
    allow("the Python 3.10 fallback of operator.call",
          "tests/test_constitutive.py::test_python_3_10_fallback_makes_the_same_steps",
          "constitutive:_call")
allow(BENCHMARK, THERMAL,
      "constitutive:Renormalizer.__post_init__", "constitutive:Renormalizer.__call__",
      "constitutive:Renormalizer.deriv", "constitutive:_simpson_first_intervals",
      "constitutive:_cumulative_simpson", "constitutive:_uniform_interval",
      "constitutive:_cumulative_weighted", "constitutive:renormalized_heat_content",
      "constitutive:renormalized_conductivity_potential", "diagnostics:_quintic_bump",
      "diagnostics:_quintic_bump_d1", "diagnostics:_quintic_bump_d2",
      "diagnostics:_bank_tables", "diagnostics:_bank_tables.outer3",
      "diagnostics:thermal_weak_residual")
allow(BENCHMARK, "tests/test_acceptance.py::test_07_energy_budget_bound_and_shrink",
      "diagnostics:energy_budget_check")
allow(BENCHMARK, "tests/test_diagnostics.py::test_entropy_rest_state_oracle",
      "diagnostics:entropy_balance")
allow(BENCHMARK, "tests/test_acceptance.py::test_06_shipped_scenario_invariants",
      "diagnostics:read_records_csv")
allow(TRACED, "tests/test_constitutive.py::test_temperature_from_heat_constant_cv",
      "constitutive:temperature_from_heat")
allow(TRACED, "tests/test_fieldops.py::test_suppressed_axis_derivatives_vanish", "fieldops:d2")
allow(ACCEPTANCE, "tests/test_acceptance.py::test_01_constitutive_hypothesis_validator",
      "constitutive:HypothesisReport.ok")
allow(ACCEPTANCE, IDENTITY,
      "fieldops:curl", "fieldops:cross", "fieldops:lorentz_force", "fieldops:identity_residual")
allow(ORACLE, RHS, "constitutive:conductivity_potential")
allow(READER, "tests/test_snapshots.py::test_roundtrip_bit_exact", "snapshots:read_snapshot")
allow(roadmap(8), "tests/test_compactness.py::test_reflect_riesz_trace_identity",
      "compactness:SpectralOperators.reflect", "compactness:SpectralOperators.riesz")
allow(roadmap(8), "tests/test_compactness.py::test_commutator_one_mode_closed_form",
      "compactness:commutator_probe")
allow(roadmap(8), "tests/test_compactness.py::test_effective_flux_subtracts_dilatation",
      "compactness:effective_viscous_flux")
allow(roadmap(10), PRIMITIVES,
      "constitutive:Tabulated.__init__", "constitutive:Tabulated.__call__")
allow(roadmap(10), RHS, "constitutive:_call_into")


def commands(out: Path) -> list[list[str]]:
    configs = HERE / "configs"
    vortex, sweep = str(configs / "vortex2d.ini"), str(configs / "sweep_delta.ini")
    short = ["--override", "scheme.t_end=0.01"]

    def on(shape):
        return ["--override", f"grid.shape={shape}", *short]

    return [
        ["run", "--config", vortex, "--out", str(out / "run2d"), *on("9 9 1")],
        ["run", "--config", vortex, "--out", str(out / "run3d"), *on("5 5 5")],
        ["sweep", "--config", sweep, "--out", str(out / "sweep"), *on("9 9 1")],
        ["mms", "--quick", "--out", str(out / "mms")],
        ["compactness", "--out", str(out / "compactness")],
        ["validate", "--config", vortex],
    ]


def defined() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (name, line count) of every def in the package.

    A code object's first line is its def line, or its first decorator's
    line, so a decorated function is keyed under both.
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    entry = (f"{module}:{qual}", child.end_lineno - first + 1)
                    out[(str(path), child.lineno)] = out[(str(path), first)] = entry
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:  # a def inside an if, for, with or try block
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def reached_code() -> set[tuple[str, int]]:
    """(file, first line) of every function the commands call."""
    sys.path.insert(0, str(SRC))
    from mhdlab.cli import main

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            printed = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                    status = main(argv)
            finally:
                sys.setprofile(None)
            if status != 0:
                raise SystemExit(f"mhdlab {' '.join(argv)} exited {status}:\n{printed.getvalue()}")
    return seen


def main() -> int:
    table = defined()
    seen = reached_code()
    names = {name: lines for name, lines in table.values()}
    reached = {table[key][0] for key in seen if key in table}
    unreached = sorted(set(names) - reached)

    print(f"{'function':56} {'lines':>5}  allowed because")
    for name in unreached:
        reason = ALLOWED[name][0] if name in ALLOWED else "NOT ALLOWED"
        print(f"{name:56} {names[name]:5d}  {reason}")
    lines = sum(names[n] for n in unreached)
    print(f"{len(unreached)} of {len(names)} functions unreached, {lines} lines")

    errors = [f"{n} is unreached and not in ALLOWED" for n in unreached if n not in ALLOWED]
    errors += [f"{n} is in ALLOWED but not defined" for n in ALLOWED if n not in names]
    errors += [f"{n} is in ALLOWED but now reached" for n in ALLOWED if n in reached]
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
