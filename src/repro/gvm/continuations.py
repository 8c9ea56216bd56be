"""Continuations: the mechanism behind workflow migration.

Paper Section 3.1: "A continuation represents the completion of the same
flow of control (compare to a future, which represents the completion of
a *different* flow of control)."  The GVM grants one at any ``yield`` or
``push-cc``.  Section 4.2 persists a suspended fiber as one serialization
of its frame stack, so a continuation *is* that pickle, taken once by
:func:`capture` through a :class:`~.registry.ProgramTable`:
it shares nothing with the running fiber, pickling a future determines
it (Section 4.1), and each :func:`materialize` unpickles a fresh copy.
"""

from __future__ import annotations

import copy  # noqa: F401 - unused; tools count deep copies by swapping it
import pickle
from typing import List, Optional

from .frames import Frame
from .registry import DECODE_ERRORS, ProgramTable


class Continuation:
    """A resumable snapshot of a fiber's control state, held as bytes.

    ``payload`` pickles, through ``table``, a fixed-order state tuple —
    label, special bindings, handlers, restarts and frame stack (top
    frame's pc just after the capturing instruction).  It never changes,
    so holders share it freely.  ``decode_error`` maps a failure to
    decode a damaged payload to the error to raise instead.
    """

    __slots__ = ("payload", "table", "decode_error", "_state")

    def __init__(self, payload: Optional[bytes], table: Optional[ProgramTable],
                 decode_error=None):
        self.payload = payload
        self.table = table
        self.decode_error = decode_error
        #: the state tuple while held by value (captured or unpickled)
        self._state: Optional[tuple] = None

    @property
    def frames(self) -> List[Frame]:
        """A decoded copy of the frame stack, for inspection."""
        return self._decode()[5]

    def __repr__(self) -> str:
        _tag, label, _dynamics, _handlers, _restarts, frames = self._decode()
        top = frames[-1].function_name if frames else "?"
        return f"#<continuation {label} at {top} ({len(frames)} frames)>"

    # the tuple's field order is part of the persisted blob format
    def __getstate__(self):
        return self._state if self.payload is None else self._decode()

    def __setstate__(self, state):
        _tag, _label, _dynamics, _handlers, _restarts, _frames = state
        self.__init__(None, None)
        self._state = state

    def estimated_size(self) -> int:
        """The serialized size in bytes."""
        return len(self._encoded())

    def _encoded(self, table: Optional[ProgramTable] = None) -> bytes:
        if self.payload is None:  # held by value: encode it once
            self.table = table or ProgramTable(by_identity=True)
            self.payload = self.table.dumps(self)
            self._state = None
        return self.payload

    def _decode(self) -> tuple:
        """A fresh copy of the state tuple."""
        payload = self._encoded()
        try:
            return self.table.loads(payload)._state
        except DECODE_ERRORS as exc:
            if self.decode_error is None:
                raise
            raise self.decode_error(exc) from exc


#: a pickled continuation's class and NEWOBJ, after the 11-byte header
_HEAD = pickle.dumps(
    Continuation, protocol=pickle.HIGHEST_PROTOCOL)[11:-1] + b")\x81"


def is_continuation_pickle(raw: bytes) -> bool:
    """Is ``raw`` a pickled :class:`Continuation` (protocol 5, framed)?"""
    return raw.startswith(_HEAD, 11)


def capture(frames: List[Frame], handlers: list, restarts: list,
            dynamics: dict, label: str = "continuation",
            table: Optional[ProgramTable] = None) -> Continuation:
    """Snapshot the given VM state into a :class:`Continuation`
    (through a private by-identity table if ``table`` is None)."""
    continuation = Continuation.__new__(Continuation)
    continuation.__setstate__(("gozer-continuation", label, dynamics,
                               handlers, restarts, frames))
    continuation._encoded(table)
    return continuation


def materialize(continuation: Continuation) -> tuple:
    """Decode fresh, runnable ``(frames, handlers, restarts, dynamics)``;
    the continuation is untouched, so it can be resumed again (a
    ``push-cc`` continuation is multi-shot)."""
    _tag, _label, dynamics, handlers, restarts, frames = continuation._decode()
    return frames, handlers, restarts, dynamics
