"""The conformance oracles: four independent ways to run one program.

* :func:`run_vm`        — the bytecode VM (the *baseline* oracle).
* :func:`run_vm_pickle` — the VM, but every captured continuation is
  forced through a pickle round-trip before resuming (the persistence
  path Vinz migration depends on).
* :func:`run_tree`      — the tree-walking reference interpreter on the
  sequentialized forms; higher-order stdlib builtins that are pure but
  happen to be implemented against the VM run through a scratch VM.
* :func:`run_stepwise`  — the VM with capture + pickle + restore forced
  at instruction boundaries (stride 1 == *every* boundary), asserting
  bit-equal results and conservation of the instruction count.
* :func:`run_vinz`      — a distributed Vinz execution under a seeded
  survivable chaos plan with event-sourced history and
  ``recovery="replay"``, cross-checked by deterministic replay.

Every oracle returns an :class:`Outcome`; the executor compares them.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..gvm.conditions import (GozerCondition, UnhandledConditionError,
                              coerce_condition)
from ..gvm.continuations import capture
from ..gvm.interpreter import (ContinuationsUnsupported, TreeInterpreter,
                               force, force_all)
from ..gvm.runtime import Done, Yielded, make_runtime
from ..gvm.vm import ControlFlowSignal
from ..lang.printer import print_form
from .grammar import SAFE_VM_FNS, GenProgram

# outcome kinds -----------------------------------------------------------
VALUE = "value"            # ran to completion, comparable result
CONDITION = "condition"    # signalled an unhandled condition
UNSUPPORTED = "unsupported"  # engine cannot run this class of program
HANG = "hang"              # exceeded the resume/deadline budget
ENGINE_ERROR = "engine-error"  # the engine itself failed (a real bug)


@dataclass
class Outcome:
    """What one oracle observed for one program."""

    kind: str
    value: Any = None
    ctype: Optional[str] = None
    printed: str = ""
    detail: str = ""
    #: printed yield values, in order (suspend-stratum comparisons)
    yields: Tuple[str, ...] = ()

    @classmethod
    def of_value(cls, value: Any, yields: Tuple[str, ...] = ()) -> "Outcome":
        return cls(kind=VALUE, value=value, printed=print_form(value),
                   yields=yields)

    @classmethod
    def of_exception(cls, exc: BaseException,
                     yields: Tuple[str, ...] = ()) -> "Outcome":
        if isinstance(exc, UnhandledConditionError):
            cond = exc.condition
            return cls(kind=CONDITION, ctype=cond.condition_type,
                       detail=str(cond), yields=yields)
        if isinstance(exc, GozerCondition):
            return cls(kind=CONDITION, ctype=exc.condition_type,
                       detail=str(exc), yields=yields)
        if isinstance(exc, (RecursionError, MemoryError,
                            pickle.PicklingError, AttributeError)):
            return cls(kind=ENGINE_ERROR,
                       detail=f"{type(exc).__name__}: {exc}", yields=yields)
        cond = coerce_condition(exc)
        return cls(kind=CONDITION, ctype=cond.condition_type,
                   detail=f"{type(exc).__name__}: {exc}", yields=yields)

    def agrees_with(self, other: "Outcome", strict_ctype: bool = True,
                    compare_yields: bool = False) -> bool:
        if self.kind != other.kind:
            return False
        if compare_yields and self.yields != other.yields:
            return False
        if self.kind == VALUE:
            return self.printed == other.printed
        if self.kind == CONDITION:
            return (not strict_ctype) or self.ctype == other.ctype
        return True  # hang == hang, unsupported == unsupported

    def describe(self) -> str:
        if self.kind == VALUE:
            return f"value {self.printed}"
        if self.kind == CONDITION:
            return f"condition {self.ctype} ({self.detail})"
        return f"{self.kind} {self.detail}".strip()


# ---------------------------------------------------------------------------
# VM oracle (baseline) and its pickle-roundtrip variant
# ---------------------------------------------------------------------------

def run_vm(program: GenProgram, pickle_roundtrip: bool = False,
           max_resumes: int = 64) -> Outcome:
    """Run the sequentialized program on the bytecode VM.

    Suspend-stratum programs yield; each yield value is recorded and
    answered from the program's cyclic ``feeds`` schedule.  With
    ``pickle_roundtrip`` the continuation crosses ``pickle`` before
    every resume — exactly what fiber migration does to it.
    """
    rt = make_runtime()
    yields: List[str] = []
    feeds = program.feeds or (1,)
    try:
        result = rt.start(program.sequential_source)
        resumes = 0
        while isinstance(result, Yielded):
            yields.append(print_form(result.value))
            if resumes >= max_resumes:
                return Outcome(kind=HANG, yields=tuple(yields),
                               detail=f">{max_resumes} resumes")
            continuation = result.continuation
            if pickle_roundtrip:
                continuation = pickle.loads(pickle.dumps(continuation))
            result = rt.resume(continuation, feeds[resumes % len(feeds)])
            resumes += 1
        return Outcome.of_value(result.value, yields=tuple(yields))
    except Exception as exc:  # noqa: BLE001 - outcomes, not crashes
        return Outcome.of_exception(exc, yields=tuple(yields))


def run_vm_pickle(program: GenProgram, max_resumes: int = 64) -> Outcome:
    return run_vm(program, pickle_roundtrip=True, max_resumes=max_resumes)


# ---------------------------------------------------------------------------
# tree-interpreter oracle
# ---------------------------------------------------------------------------

class ConformanceTreeInterpreter(TreeInterpreter):
    """Tree interpreter that may call *pure* VM-hosted builtins.

    ``mapcar``/``reduce``/``sort``/… are implemented against the VM's
    calling convention but are semantically pure; routing them through
    a scratch VM lets the reference interpreter cover far more of the
    generated grammar.  The scratch VM can call back into tree-land
    because :class:`~repro.gvm.interpreter.TreeFunction` is a plain
    callable.  Builtins that need the *live* condition/future machinery
    (``error``, ``invoke-restart``, ``pcall``, …) still raise, which
    the executor classifies via the feature analysis.
    """

    def __init__(self, global_env, apply_fn=None, scratch_vm=None):
        super().__init__(global_env, apply_fn=apply_fn)
        self._scratch_vm = scratch_vm
        self._safe_vm_fns = self._resolve_safe_fns()

    @staticmethod
    def _resolve_safe_fns():
        from ..lang import stdlib

        safe = set()
        for key, fn in stdlib._VM_REGISTRY.items():
            name = key.name if hasattr(key, "name") else str(key)
            if name in SAFE_VM_FNS:
                safe.add(fn)
        return safe

    def _apply(self, fn: Any, args: List[Any]) -> Any:
        target = force(fn)
        if callable(target) and getattr(target, "needs_vm", False) \
                and target in self._safe_vm_fns \
                and self._scratch_vm is not None:
            return target(self._scratch_vm, *force_all(args))
        return super()._apply(fn, args)


def run_tree(program: GenProgram) -> Outcome:
    """Run the sequentialized program on the reference interpreter."""
    rt = make_runtime()
    scratch = rt.new_vm(allow_yield=False)
    interp = ConformanceTreeInterpreter(rt.global_env, apply_fn=rt.apply,
                                        scratch_vm=scratch)
    try:
        value = None
        for form in rt.read_all(program.sequential_source):
            value = interp.eval(form)
        return Outcome.of_value(value)
    except ContinuationsUnsupported as exc:
        return Outcome(kind=UNSUPPORTED, detail=str(exc))
    except Exception as exc:  # noqa: BLE001
        return Outcome.of_exception(exc)


# ---------------------------------------------------------------------------
# stepwise capture/restore oracle
# ---------------------------------------------------------------------------

class _StepPause(ControlFlowSignal):
    """Raised by the instruction hook to stop the VM *between* two
    instructions; subclassing ``ControlFlowSignal`` makes the dispatch
    loop re-raise it without routing it into the condition system, and
    because the hook fires before ``pc``/``instruction_count`` advance,
    the paused instruction re-executes exactly once after restore."""


def stepwise_safe(program: GenProgram) -> bool:
    """Whether every intermediate VM state of the program pickles.

    Futures are excluded conservatively: a stride-1 pause can catch a
    not-yet-touched :class:`~repro.gvm.futures.GozerFuture` — which may
    hold host synchronization state — live in a frame.  (Intrinsic
    references and ``constantly`` results used to be unpicklable local
    closures too; the fuzzer surfaced that and they are now module
    level, see ``repro.lang.stdlib``.)
    """
    from .grammar import F_FUTURE

    return F_FUTURE not in program.analysis.features


@dataclass
class StepwiseResult:
    outcome: Outcome
    segments: int
    instructions: int
    baseline_instructions: int

    @property
    def counts_agree(self) -> bool:
        return self.instructions == self.baseline_instructions


def run_stepwise(program: GenProgram, stride: int = 1,
                 max_segments: int = 200_000) -> StepwiseResult:
    """Run on the VM, forcing capture + pickle + restore every ``stride``
    instruction boundaries (at top-level depth).

    Returns the final outcome plus the instruction accounting: the sum
    of instructions over all resumed segments must equal the count of
    one uninterrupted run — capture is transparent to cost, not just to
    the result (the satellite-3 property).
    """
    rt = make_runtime()
    forms = rt.read_all(program.sequential_source)
    for form in forms[:-1]:
        rt.eval_form(form)
    code = rt.compile(forms[-1], name="conf-step")

    # baseline: one uninterrupted run on an identically-prepared runtime
    rt_base = make_runtime()
    for form in rt_base.read_all(program.sequential_source)[:-1]:
        rt_base.eval_form(form)
    base_code = rt_base.compile(
        rt_base.read_all(program.sequential_source)[-1], name="conf-step")
    vm_base = rt_base.new_vm(allow_yield=True)
    try:
        base_result = vm_base.run_code(base_code)
        base_outcome = Outcome.of_value(base_result.value) \
            if isinstance(base_result, Done) \
            else Outcome(kind=HANG, detail="baseline yielded")
    except Exception as exc:  # noqa: BLE001
        base_outcome = Outcome.of_exception(exc)
    baseline_count = vm_base.instruction_count

    segments = 0
    total = 0

    def install_hook(vm) -> None:
        start = vm.instruction_count

        def hook(frame, op, arg):
            if vm._depth == 1 and vm.instruction_count - start >= stride:
                raise _StepPause()

        vm.instruction_hook = hook

    vm = rt.new_vm(allow_yield=True)
    install_hook(vm)
    pending: Optional[Callable[[], Any]] = lambda: vm.run_code(code)
    outcome: Optional[Outcome] = None
    while outcome is None:
        try:
            result = pending()
            if isinstance(result, Done):
                outcome = Outcome.of_value(result.value)
            else:  # a real (yield): treat like run_vm with default feed
                outcome = Outcome(kind=HANG, detail="stepwise yielded")
        except _StepPause:
            segments += 1
            total += vm.instruction_count
            if segments > max_segments:
                outcome = Outcome(kind=HANG,
                                  detail=f">{max_segments} segments")
                break
            continuation = capture(vm.frames, vm.handlers, vm.restarts,
                                   vm.dynamics.snapshot(), label="step")
            vm = rt.new_vm(allow_yield=True)
            vm.restore(pickle.loads(pickle.dumps(continuation)))
            install_hook(vm)
            pending = lambda: vm._run_top(None)  # noqa: E731
        except Exception as exc:  # noqa: BLE001
            outcome = Outcome.of_exception(exc)
    total += vm.instruction_count
    if not outcome.agrees_with(base_outcome):
        outcome = Outcome(kind=ENGINE_ERROR,
                          detail=f"stepwise {outcome.describe()} != "
                                 f"baseline {base_outcome.describe()}")
    return StepwiseResult(outcome=outcome, segments=segments,
                          instructions=total,
                          baseline_instructions=baseline_count)


# ---------------------------------------------------------------------------
# distributed Vinz oracle
# ---------------------------------------------------------------------------

#: the survivable fault envelope (mirrors tests/test_properties.py):
#: any plan drawn from it must leave every task COMPLETED and correct.
def survivable_plan(rng: random.Random):
    from ..faults.plan import (CRASH, DELAY, DROP, DUPLICATE, FaultPlan,
                               MessageFault, NodeFault, StoreFault)

    faults: List[Any] = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.45:
            faults.append(MessageFault(
                action=rng.choice([DROP, DUPLICATE, DELAY]),
                nth=rng.randint(1, 6), count=rng.randint(1, 2),
                delay=rng.uniform(0.05, 1.0)))
        elif roll < 0.8:
            faults.append(StoreFault(
                action="fail-write",
                key_prefix=rng.choice(["", "fiber-state/", "fiber-thunk/"]),
                nth=rng.randint(1, 6), count=rng.randint(1, 2)))
        else:
            faults.append(NodeFault(
                action=CRASH, at=rng.uniform(0.1, 2.0),
                restart_after=rng.uniform(0.5, 2.0)))
    return FaultPlan(faults, name="conformance-chaos")


def run_vinz(program: GenProgram, seed: int = 0, chaos: bool = True,
             deadline: float = 5_000.0) -> Outcome:
    """Run the program as a distributed Vinz workflow.

    The body becomes ``(defun main (params) ...)``; the task runs on a
    3-node simulated cluster with event-sourced history, replay-based
    crash recovery and (optionally) a seeded chaos plan drawn from the
    survivable envelope.  A completed task is additionally re-verified
    with :meth:`~repro.vinz.api.VinzEnvironment.replay_task` — a replay
    divergence is an engine error even when the value agrees.
    """
    from ..faults.injector import FaultInjector
    from ..history import ReplayDivergenceError
    from ..vinz.api import VinzEnvironment, WorkflowError
    from ..vinz.task import COMPLETED

    rng = random.Random(seed ^ 0xC0FFEE)
    try:
        env = VinzEnvironment(nodes=3, seed=seed, trace=True,
                              history="on", recovery="replay")
        env.deploy_workflow("Conformance", program.vinz_source,
                            spawn_limit=3)
        if chaos:
            FaultInjector(seed, survivable_plan(rng)).install(env)
        task_id = env.start("Conformance", params=[])
        try:
            task = env.wait_for_task(
                task_id, deadline=env.cluster.kernel.now + deadline)
        except TimeoutError as exc:
            return Outcome(kind=HANG, detail=str(exc))
        if task.status == COMPLETED:
            try:
                env.replay_task(task_id)
            except ReplayDivergenceError as exc:
                return Outcome(kind=ENGINE_ERROR,
                               detail=f"replay divergence: {exc}")
            return Outcome.of_value(task.result)
        return Outcome(kind=CONDITION, ctype="error",
                       detail=str(task.error or task.status))
    except WorkflowError as exc:
        return Outcome(kind=CONDITION, ctype="error",
                       detail=f"{exc.qname}: {exc.fault_message}")
    except Exception as exc:  # noqa: BLE001
        return Outcome.of_exception(exc)
