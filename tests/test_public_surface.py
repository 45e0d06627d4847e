"""The narrowed public surface (ISSUE 16): no option without a caller.

``execute()`` is one signature both backends honour — an argument a backend
would discard is a ``TypeError``, not a docstring — and the serve engine, the
HTTP front and both CLIs carry no removed option.  These are the tripwires
that keep a removed argument from drifting back in.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

from repro.runtime import (
    DecentralisedScheduler,
    ExecutionBackend,
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    PlannerDispatch,
    SpecSource,
)
from repro.runtime.parallel import __main__ as parallel_cli
from repro.runtime.parallel import backend as mesh_module
from repro.serve import SessionEngine
from repro.serve import __main__ as serve_cli
from repro.serve.api import ServeHTTPServer, make_http_server
from repro.sim import Cluster, Machine

MCAM_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "mcam_core.estelle"
SRC = Path(__file__).parent.parent / "src"
TESTS = Path(__file__).parent

SHARED_EXECUTE = [
    "self",
    "source",
    "cluster",
    "mapping",
    "dispatch",
    "max_rounds",
    "busy_work_us_per_cost",
    "obs",
]


def parameters(function):
    return list(inspect.signature(function).parameters)


def mcam():
    return SpecSource.from_estelle_file(MCAM_SPEC)


def two_machines():
    cluster = Cluster()
    cluster.add(Machine("ksr1", 1))
    cluster.add(Machine("client-ws-1", 1))
    return cluster


@pytest.fixture()
def no_spawn(monkeypatch):
    """The names of the worker processes ``execute()`` asked for — recorded,
    never started (the probe of ``test_unknown_dispatch_name_fails_before_
    any_spawn``)."""
    asked = []
    monkeypatch.setattr(
        mesh_module._ControlPlane,
        "spawn",
        lambda self, uid, config, endpoint, name: asked.append(name),
    )
    return asked


class TestExecuteSignature:
    def test_one_signature_both_backends_honour(self):
        abstract = inspect.signature(ExecutionBackend.execute)
        assert list(abstract.parameters) == SHARED_EXECUTE
        assert inspect.signature(InProcessBackend.execute) == abstract
        mesh = inspect.signature(MultiprocessBackend.execute)
        assert list(mesh.parameters) == SHARED_EXECUTE + ["fault_plan", "supervise"]
        for name in SHARED_EXECUTE:
            assert mesh.parameters[name] == abstract.parameters[name]

    @pytest.mark.parametrize("backend", [InProcessBackend, MultiprocessBackend])
    @pytest.mark.parametrize(
        "removed",
        [
            pytest.param({"scheduler": DecentralisedScheduler()}, id="scheduler"),
            pytest.param({"dispatch_kwargs": {}}, id="dispatch_kwargs"),
        ],
    )
    def test_a_removed_argument_is_a_type_error_before_any_spawn(
        self, no_spawn, backend, removed
    ):
        with pytest.raises(TypeError, match="unexpected keyword"):
            backend().execute(mcam(), two_machines(), mapping=GroupedMapping(), **removed)
        assert no_spawn == []

    def test_mesh_holds_dispatch_to_the_registry_without_building_a_strategy(
        self, no_spawn, monkeypatch
    ):
        """``dispatch=`` stays on the mesh (the ruler passes it) and selects
        nothing there: the name is looked up, no strategy object is made."""
        with pytest.raises(ValueError, match="unknown dispatch strategy 'quantum'"):
            MultiprocessBackend().execute(
                mcam(), two_machines(), mapping=GroupedMapping(), dispatch="quantum"
            )
        assert no_spawn == []

        class ReachedSpawn(Exception):
            pass

        def refuse_to_spawn(self, uid, config, endpoint, name):
            raise ReachedSpawn(name)

        built = []
        monkeypatch.setattr(mesh_module._ControlPlane, "spawn", refuse_to_spawn)
        monkeypatch.setattr(
            PlannerDispatch, "__init__", lambda self, **costs: built.append(self)
        )
        with pytest.raises(ReachedSpawn, match="estelle-unit-"):
            MultiprocessBackend().execute(
                mcam(), two_machines(), mapping=GroupedMapping(), dispatch="planner"
            )
        assert built == []


class TestConstructors:
    def test_mesh_backend(self):
        assert parameters(MultiprocessBackend.__init__) == [
            "self",
            "round_timeout_s",
            "transport",
            "transport_options",
            "relax_barrier",
            "lookahead_rounds",
        ]

    def test_session_engine(self):
        assert parameters(SessionEngine.__init__) == [
            "self",
            "registry",
            "max_sessions",
            "obs",
            "state_dir",
            "step_timeout_s",
            "fault_plan",
        ]

    def test_http_front(self):
        server = ["verbose", "max_inflight", "max_body_bytes"]
        assert parameters(ServeHTTPServer.__init__) == ["self", "address", "api"] + server
        assert parameters(make_http_server) == ["host", "port", "engine"] + server


@pytest.mark.parametrize(
    "main,flags",
    [
        pytest.param(
            serve_cli.main,
            {"--host", "--port", "--verbose", "--smoke", "--spec", "--rounds-per-slice",
             "--state-dir", "--max-inflight", "--max-body-bytes", "--step-timeout"},
            id="repro.serve",
        ),
        pytest.param(
            parallel_cli.main,
            {"--processors", "--max-rounds", "--transport", "--busy-work-us",
             "--relax-barrier"},
            id="repro.runtime.parallel",
        ),
    ],
)
def test_cli_help_lists_no_removed_flag(capsys, main, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    listed = {
        word.rstrip(",")
        for word in capsys.readouterr().out.split()
        if word.startswith("--")
    }
    assert listed - {"--help"} == flags


@pytest.mark.parametrize(
    "pattern,paths",
    [
        # The coordinator and its workers talk over _ControlPlane's pipe lanes
        # and nothing else.
        pytest.param(
            r"ctx\.Queue\(|ctx\.Barrier\(|from queue import",
            ["repro/runtime/parallel/backend.py", "repro/runtime/parallel/worker.py"],
            id="one-control-mechanism-in-the-mesh",
        ),
        # One coordinator loop over one fold, and mp-queue is one layer.
        pytest.param(
            r"_run_barrier_loop|PrecomputedDispatch|class BatchChannel|class ChannelMesh",
            ["repro/runtime/parallel"],
            id="one-loop-one-fold-one-wire",
        ),
        pytest.param(
            r"^\s*(import|from)\s+(queue|multiprocessing)\b",
            ["repro/runtime/parallel/channels.py"],
            id="channels-reach-for-no-queue",
        ),
        # Mesh workers report dirty deltas through the generated selectors;
        # serve sessions always run the planner.
        pytest.param(
            r"dispatch_name|dispatch_kwargs=|DecentralisedScheduler|\.plan_round\(",
            ["repro/runtime/parallel/worker.py"],
            id="one-way-to-plan-on-the-mesh",
        ),
        pytest.param(r"dispatch_for|default_dispatch", ["repro/serve"], id="one-way-to-plan-in-serve"),
        pytest.param(
            r"dispatch_kwargs|start_method|cluster_factory|mapping_factory|autopersist"
            r"|backend_transport|backend-transport|def (serial|unit)_overhead"
            r"|def lower_bodies|def parse_file",
            ["."],
            id="no-option-without-a-caller",
        ),
        # One compiled artefact per specification text: the template cache
        # behind SpecSource.build() and the selector stored on each class.
        pytest.param(
            r"dump_sources|load_dumped_selector|def adopt|def compiled_for|planner_dispatch",
            ["."],
            id="one-compiled-artefact",
        ),
        # One runner for checks (tier-1) and one for timings (the ruler):
        # the bench files, their runner and its report helpers are gone.
        pytest.param(
            r"ExperimentRecord|print_experiment|run_all|BENCH_results|bench_[a-z_]+\.py",
            ["."],
            id="one-runner-for-checks-one-for-timings",
        ),
        # Guards and action blocks are compiled once, by the front end: the
        # dispatch generator binds them and emits no guard source of its own.
        pytest.param(
            r"_python_source|_qrange|except \(KeyError, TypeError\)",
            ["repro/runtime/codegen.py"],
            id="guards-compiled-by-the-front-end",
        ),
        pytest.param(
            r"def path\(", ["repro/estelle/module.py"], id="module-path-is-an-attribute"
        ),
        # One firing record: FiringEvent's fields are the trace schema, its
        # encoding sits beside it in repro.runtime.tracing, and nothing under
        # src/ imports the parallel/trace.py shim kept for the ruler.
        pytest.param(
            r'def firing_tuple|def canonical_rounds|"state_before":'
            r"|^\s*(from|import)\s+\S*parallel\.trace\b|^\s*from\s+\.trace\s+import",
            ["."],
            id="one-firing-record",
        ),
        # A firing's sends are read from the module's send log, in both
        # backends: no per-IP counters, no before-and-after snapshot.
        pytest.param(
            r"sent_count|received_count|sent_before",
            ["."],
            id="one-record-of-a-firings-sends",
        ),
    ],
)
def test_a_removed_mechanism_stays_gone(pattern, paths):
    """Source scans under ``src/``: each pattern names code that was removed
    on purpose, and none may match a line of the files it covers."""
    files = []
    for path in paths:
        target = SRC / path
        files += sorted(target.rglob("*.py")) if target.is_dir() else [target]
    found = [
        f"{file.relative_to(SRC)}:{number}: {line.strip()}"
        for file in files
        for number, line in enumerate(file.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert found == []


def declared_test_extra():
    """Import names of the packages ``pyproject.toml``'s ``test`` extra names."""
    text = (TESTS.parent / "pyproject.toml").read_text()
    match = re.search(r"^test\s*=\s*\[([^\]]*)\]", text, re.MULTILINE)
    assert match is not None, "pyproject.toml declares no 'test' extra"
    requirements = re.findall(r"[\"']([A-Za-z0-9_.-]+)", match.group(1))
    return {name.lower().replace("-", "_") for name in requirements}


def test_every_test_import_is_declared():
    """A tier-1 file that imports a package nobody declared passes on a host
    that happens to have it and stops collection everywhere else.  Every
    import under ``tests/`` must be stdlib, ``repro``, a local test module,
    or a package the ``test`` extra names (which CI installs)."""
    allowed = (
        set(sys.stdlib_module_names)
        | {"repro", "tests"}
        | {path.stem for path in TESTS.rglob("*.py")}
        | declared_test_extra()
    )
    undeclared = []
    for file in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(), str(file))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [
                f"{file.relative_to(TESTS.parent)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert undeclared == []
