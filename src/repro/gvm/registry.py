"""The program table: how pickled fiber state refers to its program.

Fiber state points into its program — code objects, and host functions
such as builtins and Vinz intrinsics — and every node has that program
loaded (Section 3.1).  So those objects pickle as reference tokens into
a :class:`ProgramTable`, not by value: the paper's "custom format for
the most commonly serialized objects" (Section 4.2).
"""

from __future__ import annotations

import io
import pickle
import struct
import types
from typing import Any, Dict, Optional

from ..lang.bytecode import CodeObject, nested_code_objects
from ..lang.symbols import Keyword, Symbol
from .environment import Env
from .frames import Frame, GozerFunction
from .futures import GozerFuture, tick

#: every exception unpickling damaged bytes can raise
DECODE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError, KeyError,
                 IndexError, MemoryError, TypeError, ValueError, ImportError,
                 OverflowError, struct.error)

#: never callable nor code: the pickler skips the registries for them
_PLAIN = frozenset({type(None), bool, int, float, str, bytes, list, tuple,
                    dict, set, Env, Frame, GozerFunction, Symbol, Keyword})

_FUNCTIONS = (types.FunctionType, types.BuiltinFunctionType,
              types.MethodType)


class _Names:
    """Objects by key, and keys by object identity."""

    def __init__(self):
        self._by_key: Dict[str, Any] = {}
        self._by_id: Dict[int, str] = {}

    def _add(self, key: str, obj: Any) -> None:
        self._by_key[key] = obj
        self._by_id[id(obj)] = key

    def key_for(self, obj: Any) -> Optional[str]:
        return self._by_id.get(id(obj))

    def lookup(self, key: str) -> Any:
        return self._by_key[key]

    def __len__(self) -> int:
        return len(self._by_key)


class CodeRegistry(_Names):
    """Code objects by stable key (``code:N:name``, N in registration
    order); registration is idempotent."""

    def register(self, code: CodeObject) -> str:
        key = self._by_id.get(id(code))
        if key is None:
            key = f"code:{len(self)}:{code.name}"
            self._add(key, code)
        return key

    def register_tree(self, code: CodeObject) -> None:
        """Register ``code`` and every code object it references."""
        for obj in nested_code_objects(code):
            self.register(obj)


class HostFunctionRegistry(_Names):
    """Host (Python) functions by name — e.g. ``%parse-wsdl-response``
    loaded on an operand stack before its argument is evaluated."""

    def register(self, name: str, fn: Any) -> None:
        self._add(name, fn)


class ProgramTable:
    """A code and a host-function registry, and pickling through them.

    A ``by_identity`` table also refers to unregistered Python functions
    by identity, as ``copy.deepcopy`` shares them: fine in memory, while
    Vinz's strict table names only what every node has loaded."""

    def __init__(self, registry: Optional[CodeRegistry] = None,
                 hosts: Optional[HostFunctionRegistry] = None,
                 by_identity: bool = False):
        self.registry = registry if registry is not None else CodeRegistry()
        self.hosts = hosts if hosts is not None else HostFunctionRegistry()
        self.by_identity = by_identity

    def register_program(self, global_env) -> None:
        """Register what ``global_env`` defines, in definition order."""
        for name, value in list(global_env.variables.items()):
            if isinstance(value, GozerFunction):
                self.registry.register_tree(value.code)
            elif callable(value):
                self.hosts.register(name.name, value)
        for macro in list(global_env.macros.values()):
            fn = getattr(macro, "function", None)
            if isinstance(fn, GozerFunction):
                self.registry.register_tree(fn.code)

    def dumps(self, obj: Any, ref_code: bool = True) -> bytes:
        """Pickle ``obj``.  Pickling a future determines it (Section
        4.1); one that determines during the pickle may have changed
        state written before it, so then pickle again."""
        while True:
            buffer = io.BytesIO()
            pickler = _Pickler(buffer, self, ref_code)
            pickler.dump(obj)
            if not pickler.raced:
                return buffer.getvalue()

    def loads(self, raw: bytes) -> Any:
        return _Unpickler(io.BytesIO(raw), self).load()


class _Pickler(pickle.Pickler):
    def __init__(self, file, table: ProgramTable, ref_code: bool):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._table = table
        self._ref_code = ref_code
        self._start = tick()
        #: met a future not determined before this pickle started
        self.raced = False

    def persistent_id(self, obj):
        if type(obj) in _PLAIN:
            return None
        if type(obj) is GozerFuture:
            self.raced = self.raced or not obj.determined_before(self._start)
            return None
        if self._ref_code and isinstance(obj, CodeObject):
            # unseen code (e.g. built interactively) is registered, so
            # this table can resolve it when reading back
            return ("code", self._table.registry.register(obj))
        if callable(obj) and not isinstance(obj, type):
            hosts = self._table.hosts
            key = hosts.key_for(obj)
            if key is None and self._table.by_identity \
                    and isinstance(obj, _FUNCTIONS):
                key = f"fn:{len(hosts)}"
                hosts.register(key, obj)
            if key is not None:
                return ("host", key)
        return None


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, table: ProgramTable):
        super().__init__(file)
        self._table = table

    def persistent_load(self, pid):
        kind, key = pid  # ("code" | "host", key)
        table = self._table
        return (table.registry if kind == "code" else table.hosts).lookup(key)
