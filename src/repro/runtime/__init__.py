"""The parallel Estelle runtime (what the paper's code generator emits).

Pieces:

* dispatch strategies (hard-coded scan, table-driven selection, and the
  code generator's specialized selection functions),
* the optimizing code generator (:mod:`repro.runtime.codegen`) emitting
  per-(state, interaction) flattened dispatch with precompiled guards,
* schedulers (centralised vs decentralised),
* the incremental fused round planner (:mod:`repro.runtime.planner`):
  dirty-set driven selection caching plus a generated whole-specification
  planner function, selected through the ``"planner"`` dispatch name,
* the simulated clock (:mod:`repro.runtime.clock`) driving Estelle ``delay``
  semantics identically on both execution backends,
* mapping strategies (thread-per-module, grouping, connection-per-processor,
  layer-per-processor, sequential baseline),
* the executor that runs a specification on a simulated cluster and produces
  :class:`repro.sim.metrics.ExecutionMetrics`,
* the execution-backend abstraction: :class:`InProcessBackend` (the modelled
  runtime) and :class:`repro.runtime.parallel.MultiprocessBackend` (real OS
  processes per execution unit), both reachable via :func:`backend_by_name`
  and required to produce byte-identical canonical firing traces,
* execution traces.
"""

from .clock import SimulatedClock, firing_advance, next_delay_deadline
from .codegen import (
    CompiledModuleDispatch,
    GeneratedDispatchStrategy,
    GeneratedProgram,
    compile_module_class,
    compile_specification,
)
from .dispatch import (
    DispatchResult,
    DispatchStrategy,
    HardCodedDispatch,
    TableDrivenDispatch,
    dispatch_by_name,
    register_strategy,
)
from .executor import (
    BackendResult,
    ExecutionBackend,
    InProcessBackend,
    SpecSource,
    SpecificationExecutor,
    backend_by_name,
    busy_work_for,
    register_backend,
    run_specification,
)
from .planner import (
    FusedPlanProgram,
    IncrementalRoundPlanner,
    PlannerDispatch,
    PlannerStats,
    compile_plan_program,
)
from .mapping import (
    ConnectionPerProcessorMapping,
    ExecutionUnit,
    GroupedMapping,
    LayerPerProcessorMapping,
    MappingStrategy,
    SequentialMapping,
    SystemMapping,
    ThreadPerModuleMapping,
    mapping_by_name,
)
from .scheduler import (
    CentralisedScheduler,
    DecentralisedScheduler,
    PlannedFiring,
    RoundPlan,
    Scheduler,
    scheduler_by_name,
)
from .tracing import ExecutionTrace, FiringEvent, RoundRecord

# Importing the parallel package registers the "multiprocess" backend with
# backend_by_name (mirroring how codegen registers the "generated" dispatch).
from .parallel import MultiprocessBackend

__all__ = [
    "BackendResult",
    "CentralisedScheduler",
    "CompiledModuleDispatch",
    "ConnectionPerProcessorMapping",
    "DecentralisedScheduler",
    "DispatchResult",
    "DispatchStrategy",
    "ExecutionBackend",
    "ExecutionTrace",
    "ExecutionUnit",
    "FiringEvent",
    "FusedPlanProgram",
    "IncrementalRoundPlanner",
    "PlannerDispatch",
    "PlannerStats",
    "GeneratedDispatchStrategy",
    "GeneratedProgram",
    "GroupedMapping",
    "HardCodedDispatch",
    "InProcessBackend",
    "LayerPerProcessorMapping",
    "MappingStrategy",
    "MultiprocessBackend",
    "PlannedFiring",
    "RoundPlan",
    "RoundRecord",
    "Scheduler",
    "SequentialMapping",
    "SimulatedClock",
    "SpecSource",
    "SpecificationExecutor",
    "SystemMapping",
    "TableDrivenDispatch",
    "ThreadPerModuleMapping",
    "backend_by_name",
    "busy_work_for",
    "compile_module_class",
    "compile_plan_program",
    "compile_specification",
    "dispatch_by_name",
    "firing_advance",
    "mapping_by_name",
    "next_delay_deadline",
    "register_backend",
    "register_strategy",
    "run_specification",
    "scheduler_by_name",
]
