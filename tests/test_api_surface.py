"""The public names of the georobust package.

The set is pinned so that adding or removing a public name is a deliberate
edit here. The benchmark harness drives the package through a few of these
names, which must keep working.
"""

import ast
import collections
import inspect
import pathlib
import subprocess
import sys
import types

import georobust
import georobust.cli

PUBLIC_NAMES = {
    "CollapseChannel", "ConfigError", "ErrorModel", "FAMILIES",
    "GateSpec", "GeorobustError", "InvariantError", "NAMED_GATES", "PhaseJumpSolution",
    "PulseSchedule", "PulseSegment", "SR_FAMILIES", "SerializationError", "SolverError",
    "SweepConfig", "SweepRow", "assemble_schedule",
    "beta_grid", "bright_dark", "cardinal_states", "check_density",
    "check_src_report", "d_matrix", "delta_rows",
    "deltas_to_csv", "dynamical_integrals", "family_build", "fidelity_prediction",
    "frame_anchor", "gate_fidelity", "geometric_phase", "leakage", "lindblad_rhs",
    "load_schedule", "magnus_gate_approx", "magnus_terms",
    "open_gate_metrics", "order_fit", "propagate_density", "propagator_fidelity",
    "pulse_area", "quadratic_coefficient", "report_table1", "rows_to_csv", "run_sweep",
    "save_schedule", "schedule_from_text", "schedule_propagator", "schedule_to_text",
    "segment_hamiltonian", "segment_propagator", "solve_phase_jumps",
    "src_phasors", "src_residual", "standard_channels", "sweep_beta",
    "target_unitary",
}


def test_public_names_are_pinned():
    public = {
        name
        for name, value in vars(georobust).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES


def test_names_the_benchmark_uses_exist():
    assert callable(georobust.cli.main)
    for name in ("d_matrix", "magnus_terms", "family_build", "schedule_to_text"):
        assert callable(getattr(georobust, name)), name
    assert georobust.ErrorModel.custom(0.01, lambda t: None).kind == "custom"
    assert set(georobust.NAMED_GATES) == {"not", "hadamard", "identity", "x90", "z90"}


def test_no_public_callable_takes_a_step_count_or_validate_switch():
    # a custom V(t) converges per segment with no user knob, so no public
    # function or constructor takes steps_per_pi or validate
    takes = []
    for name in sorted(PUBLIC_NAMES):
        value = getattr(georobust, name)
        if not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):
            continue
        takes += [f"{name}({p})" for p in params if p in ("steps_per_pi", "validate")]
    assert takes == []


def test_package_reads_no_environment():
    # the package has no environment knobs; every setting is an argument or flag
    reads = []
    for path in sorted(pathlib.Path(georobust.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                if names & {"environ", "environb", "getenv"}:
                    reads.append(f"{path.name}:{node.lineno} from os import {sorted(names)}")
    assert reads == []


def test_package_starts_no_workers():
    # sweeps run serially in one process: no pool, thread or process module
    banned = {"concurrent", "multiprocessing", "threading"}
    imports = []
    for path in sorted(pathlib.Path(georobust.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [
                f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in banned
            ]
    assert imports == []
    probe = "import sys, georobust.cli; print('multiprocessing' in sys.modules)"
    src = str(pathlib.Path(georobust.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_main_reuses_one_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(georobust.cli, "build_parser", refuse)
    assert georobust.cli.main(["check-src", "--families", "sr-ngqc"]) == 0
    assert georobust.cli.main(["check-src", "--families", "bogus"]) == 4
    assert "sr-ngqc" in capsys.readouterr().out


def test_every_module_level_definition_is_exported_or_used():
    # a function or class that __init__ does not export and no other code in
    # the package names is dead; references inside its own body do not count
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(pathlib.Path(georobust.__file__).parent.glob("*.py"))
    }
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    used = collections.Counter(name for tree in trees.values() for name in names(tree))
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and used[node.name] == sum(name == node.name for name in names(node))
    ]
    assert dead == []
