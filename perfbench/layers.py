"""Per-layer host time and counts, measured from outside the program.

:class:`LayerTrace` swaps wrappers in for the functions each layer is
entered through and restores the originals on exit.  Every wrapper
records a span on one stack, so spans nest: a layer's self time is its
span's duration minus the time of the spans it caused, and the self
times of one run add up to that run's host time.  The root span is the
kernel's ``run_until_idle``; what is left of it after the named layers
is reported as ``bluebox.clock`` (the kernel and cluster).

A wrapper patches the name the caller looks up.  ``repro.gvm.vm``
imports ``capture`` and ``materialize`` by name, so those are patched
on the ``vm`` module, not on ``repro.gvm.continuations``.
"""

from __future__ import annotations

import copy
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.bluebox.locks import (
    CoordinatorLockManager,
    FileLockManager,
    LockManager,
)
from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore, ShardedStore
from repro.gvm import continuations as continuations_module
from repro.gvm import vm as vm_module
from repro.history.log import HistoryLog
from repro.lang.compiler import Compiler
from repro.lang.reader import Reader
from repro.vinz.persistence import FiberCodec

_clock = time.perf_counter

#: (span layer, owner, attribute).  A class attribute is patched on
#: every listed class that defines it itself, so an override and the
#: ``super()`` call it makes are both seen.
TARGETS: List[Tuple[str, Any, str]] = [
    ("lang", Reader, "read_all"),
    ("lang", Compiler, "compile_toplevel"),
    ("lang", Compiler, "compile_function"),
    # the one entry a fresh start, a resume and run_code all pass
    ("gvm.vm", vm_module.VM, "_run_top"),
    ("gvm.continuations", vm_module, "capture"),
    ("gvm.continuations", vm_module, "materialize"),
    ("vinz.persistence.encode", FiberCodec, "dumps"),
    ("vinz.persistence.decode", FiberCodec, "loads"),
    *[("bluebox.store", cls, name)
      for cls in (SharedStore, ShardedStore, DurableStore)
      for name in ("write", "read", "delete")],
    *[("bluebox.locks", cls, name)
      for cls, names in (
          (LockManager, ("renew", "renew_owner", "expire_lock")),
          (FileLockManager, ("try_acquire", "release", "expire_node")),
          (CoordinatorLockManager, ("try_acquire", "release")))
      for name in names],
    ("durastore", DurableStore, "seal_window"),
    ("durastore", DurableStore, "commit_batch"),
    ("history", HistoryLog, "append_batch"),
]

#: the root span's layer
ROOT = "bluebox.clock"


def target_name(owner: Any, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attribute}"


class LayerTrace:
    """Span stack, per-layer self time and per-wrapper call counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        #: "Owner.attribute" -> calls
        self.fired: Counter = Counter()
        #: bytes returned by FiberCodec.dumps
        self.blob_bytes = 0
        #: copy.deepcopy calls made by repro.gvm.continuations
        self.deepcopy_calls = 0
        # each open span: [start, time of the spans it caused]
        self._stack: List[list] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        frame = [_clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _clock() - frame[0]
            self._stack.pop()
            self.self_s[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def _wrapper(self, layer: str, original: Callable, name: str) -> Callable:
        trace = self
        if original is FiberCodec.dumps:
            def wrapper(*args, **kwargs):
                trace.fired[name] += 1
                blob = trace.span(layer, original, *args, **kwargs)
                trace.blob_bytes += len(blob)
                return blob
        else:
            def wrapper(*args, **kwargs):
                trace.fired[name] += 1
                return trace.span(layer, original, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        for layer, owner, attribute in TARGETS:
            if isinstance(owner, type) and attribute not in vars(owner):
                continue
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapper(
                layer, original, target_name(owner, attribute)))
        real_deepcopy = copy.deepcopy

        def deepcopy(obj, memo=None):
            self.deepcopy_calls += 1
            return real_deepcopy(obj, memo)

        self._saved.append((continuations_module, "copy",
                            continuations_module.copy))
        continuations_module.copy = types.SimpleNamespace(deepcopy=deepcopy)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @staticmethod
    def installable() -> List[str]:
        """Every wrapper :meth:`__enter__` installs, by name."""
        return sorted({target_name(owner, attribute)
                       for _layer, owner, attribute in TARGETS
                       if not isinstance(owner, type)
                       or attribute in vars(owner)})
