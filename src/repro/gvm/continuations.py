"""Continuations: the mechanism behind workflow migration.

Paper Section 3.1: "A continuation represents the completion of the same
flow of control (compare to a future, which represents the completion of
a *different* flow of control)."  The GVM grants one at any ``yield`` or
``push-cc``.  Vinz serializes continuations to the shared store and
resumes them on whatever node the message queue picks — that is the
entire distribution story, so continuations must be:

* *self-contained*: a deep snapshot of the frame stack, sharing nothing
  mutable with the running fiber;
* *future-free*: every future reachable from the snapshot is determined
  first (Section 4.1);
* *serializable*: plain data + code objects, picklable as-is.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional

from ..lang.bytecode import CodeObject
from ..lang.symbols import Symbol
from .frames import Frame
from .futures import find_futures

# CodeObjects and Symbols are immutable after compilation: teach deepcopy
# to share them instead of duplicating the whole program per snapshot.
CodeObject.__deepcopy__ = lambda self, memo: self  # type: ignore[attr-defined]
Symbol.__deepcopy__ = lambda self, memo: self  # type: ignore[attr-defined]


class Continuation:
    """A resumable snapshot of a fiber's control state.

    ``frames`` is a deep copy of the VM frame stack at capture time, with
    the program counter of the top frame pointing just *after* the
    capturing instruction, and its operand stack expecting the resume
    value to be pushed.  ``handlers``/``restarts`` snapshot the dynamic
    condition-system state; ``dynamics`` snapshots special-variable
    bindings.
    """

    def __init__(self, frames: List[Frame], handlers: list, restarts: list,
                 dynamics: dict, label: str = "continuation"):
        self.frames = frames
        self.handlers = handlers
        self.restarts = restarts
        self.dynamics = dynamics
        self.label = label

    def __repr__(self) -> str:
        top = self.frames[-1].function_name if self.frames else "?"
        return f"#<continuation {self.label} at {top} ({len(self.frames)} frames)>"

    # Pickle as a fixed-order tuple rather than the instance __dict__.
    # The field order is part of the persisted blob format: changing it
    # changes every blob's bytes, so it stays fixed — frame stack last,
    # deepest frame first.
    def __getstate__(self):
        return ("gozer-continuation", self.label, self.dynamics,
                self.handlers, self.restarts, self.frames)

    def __setstate__(self, state):
        if isinstance(state, dict):  # legacy v1 blobs pickled __dict__
            self.__dict__.update(state)
            return
        _tag, label, dynamics, handlers, restarts, frames = state
        self.label = label
        self.dynamics = dynamics
        self.handlers = handlers
        self.restarts = restarts
        self.frames = frames

    def estimated_size(self) -> int:
        """A rough serialized-size estimate (frame and stack counts)."""
        return sum(len(f.stack) + len(f.code.instructions) for f in self.frames)


def capture(frames: List[Frame], handlers: list, restarts: list,
            dynamics: dict, label: str = "continuation") -> Continuation:
    """Snapshot the given VM state into a :class:`Continuation`.

    Enforces the determination rule: every future reachable from the
    frames is touched (blocking if necessary) before the copy is taken,
    so "the continuation doesn't become available until all futures have
    completed" (Section 4.1).
    """
    for future in find_futures(frames):
        future.touch()
    memo: dict = {}
    frames_copy = copy.deepcopy(frames, memo)
    handlers_copy = copy.deepcopy(handlers, memo)
    restarts_copy = copy.deepcopy(restarts, memo)
    dynamics_copy = copy.deepcopy(dynamics, memo)
    return Continuation(frames_copy, handlers_copy, restarts_copy,
                        dynamics_copy, label=label)


def materialize(continuation: Continuation) -> tuple:
    """Produce fresh, runnable state from a continuation.

    The continuation itself stays untouched, so it can be resumed more
    than once (each resume gets an independent copy) — this is also what
    makes ``fork-and-exec`` cloning (Section 3.4) a one-liner.
    """
    memo: dict = {}
    frames = copy.deepcopy(continuation.frames, memo)
    handlers = copy.deepcopy(continuation.handlers, memo)
    restarts = copy.deepcopy(continuation.restarts, memo)
    dynamics = copy.deepcopy(continuation.dynamics, memo)
    return frames, handlers, restarts, dynamics
