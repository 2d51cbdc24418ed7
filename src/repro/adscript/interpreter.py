"""AdScript interpreter: the embedder-facing engine object.

Executes programs on the bytecode VM under an execution-step budget (real
malvertising code contains busy loops and anti-analysis stalls; the
honeyclient must not hang on them).  Host integration happens in two places:
the global environment is pre-populated by the embedder (the emulated
browser), and :class:`repro.adscript.values.HostObject` members route
property traffic back to the embedder.

This module also holds what the VM shares with the tree-walking reference
in :mod:`repro.adscript.tree`: scopes, control-flow signals and the value
semantics of operators and member traffic.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.adscript.errors import ScriptRuntimeError
from repro.adscript.values import (
    HostObject,
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    format_number,
    js_equals,
    js_strict_equals,
    to_js_number,
    to_js_string,
)

DEFAULT_STEP_BUDGET = 500_000


class Environment:
    """A lexical scope."""

    __slots__ = ("bindings", "parent", "root")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.bindings: dict[str, Any] = {}
        self.parent = parent
        # Resolve the root scope once at construction: the sloppy-global
        # assignment path below is hot (ad scripts write undeclared names in
        # loops) and must not re-walk the chain per write.
        self.root: Environment = self if parent is None else parent.root

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise ScriptRuntimeError(f"{name} is not defined")

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        self.bindings[name] = value

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        # Undeclared assignment creates a global, as in sloppy-mode JS.
        self.root.bindings[name] = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


class Interpreter:
    """Evaluates AdScript programs on the bytecode VM.

    Scripts compile through the process-wide ``adscript_bytecode`` cache
    (:func:`repro.adscript.bytecode.compile_source`), so every browser
    context that executes the same source shares one ``CodeObject`` and a
    warm render skips both parse and compile.

    Parameters
    ----------
    step_budget:
        Maximum number of execution steps (the tree walker's AST-node
        evaluations, which the VM charges tick for tick) before the run is
        aborted with :class:`BudgetExceededError`.
    """

    def __init__(self, step_budget: int = DEFAULT_STEP_BUDGET) -> None:
        self.globals = Environment()
        self.step_budget = step_budget
        self.steps = 0
        self._install_builtins()

    # -- public API ------------------------------------------------------------

    def run(self, source: str) -> Any:
        """Compile and execute ``source`` in the global scope.

        Returns the value of the last expression statement, mirroring how an
        eval-style embedding reports results.
        """
        try:
            return self.eval_source(source)
        except (_Break, _Continue) as exc:
            # 'break'/'continue' outside a loop is a syntax error in JS;
            # surface it as a contained script error, not a control leak.
            raise ScriptRuntimeError(
                f"illegal {type(exc).__name__.lstrip('_').lower()} statement"
            ) from exc
        except _Return as exc:
            raise ScriptRuntimeError("return outside function") from exc

    def eval_source(self, source: str) -> Any:
        """Execute ``source`` in the global scope on behalf of script ``eval``.

        Unlike :meth:`run`, loop-control leaks (``eval('break')`` inside a
        loop) propagate to the surrounding script exactly as the tree-walker
        lets them, instead of being converted to script errors here.
        """
        return _vm.run_code(self, _bytecode.compile_source(source), self.globals)

    def call_function(self, fn: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        """Invoke a script or native function from host code."""
        return _vm.call_value(self, fn, args, this)

    def define_global(self, name: str, value: Any) -> None:
        self.globals.declare(name, value)

    # -- builtins ------------------------------------------------------------------

    def _install_builtins(self) -> None:
        from repro.adscript.stdlib import install_globals

        install_globals(self)


# -- engine-shared runtime helpers ---------------------------------------------
#
# These implement the observable value semantics (operators, member traffic)
# once, so the tree-walker and the bytecode VM cannot drift apart.


def to_int32(value: Any) -> int:
    number = to_js_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    n = int(number) & 0xFFFFFFFF
    return n - 0x100000000 if n >= 0x80000000 else n


def binary_op(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        if isinstance(left, str) or isinstance(right, str) or \
           isinstance(left, (JSObject, HostObject)) or isinstance(right, (JSObject, HostObject)):
            return to_js_string(left) + to_js_string(right)
        return to_js_number(left) + to_js_number(right)
    if op == "-":
        return to_js_number(left) - to_js_number(right)
    if op == "*":
        return to_js_number(left) * to_js_number(right)
    if op == "/":
        denominator = to_js_number(right)
        numerator = to_js_number(left)
        if denominator == 0:
            if math.isnan(numerator) or numerator == 0:
                return math.nan
            return math.inf if (numerator > 0) == (denominator >= 0) else -math.inf
        return numerator / denominator
    if op == "%":
        denominator = to_js_number(right)
        numerator = to_js_number(left)
        if denominator == 0 or math.isnan(numerator) or math.isinf(numerator):
            return math.nan
        return math.fmod(numerator, denominator)
    if op == "==":
        return js_equals(left, right)
    if op == "!=":
        return not js_equals(left, right)
    if op == "===":
        return js_strict_equals(left, right)
    if op == "!==":
        return not js_strict_equals(left, right)
    if op in ("<", ">", "<=", ">="):
        if isinstance(left, str) and isinstance(right, str):
            a, b = left, right
        else:
            a, b = to_js_number(left), to_js_number(right)
            if isinstance(a, float) and isinstance(b, float) and (math.isnan(a) or math.isnan(b)):
                return False
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        return a >= b
    if op == "&":
        return float(to_int32(left) & to_int32(right))
    if op == "|":
        return float(to_int32(left) | to_int32(right))
    if op == "^":
        return float(to_int32(left) ^ to_int32(right))
    if op == "<<":
        return float(to_int32(to_int32(left) << (to_int32(right) & 31)))
    if op == ">>":
        return float(to_int32(left) >> (to_int32(right) & 31))
    if op == ">>>":
        return float((to_int32(left) & 0xFFFFFFFF) >> (to_int32(right) & 31))
    if op == "in":
        name = to_js_string(left)
        if isinstance(right, JSArray):
            try:
                return 0 <= int(name) < len(right.elements)
            except ValueError:
                return name in right.properties
        if isinstance(right, JSObject):
            return name in right.properties
        if isinstance(right, HostObject):
            return name in right.member_names()
        return False
    raise ScriptRuntimeError(f"unknown operator {op}")


def get_member(interp: "Interpreter", obj: Any, prop: str) -> Any:
    from repro.adscript.stdlib import array_member, string_member

    if isinstance(obj, str):
        return string_member(interp, obj, prop)
    if isinstance(obj, JSArray):
        return array_member(interp, obj, prop)
    if isinstance(obj, HostObject):
        return obj.get_member(prop)
    if isinstance(obj, JSObject):
        return obj.get(prop)
    if obj is UNDEFINED or obj is None:
        raise ScriptRuntimeError(
            f"cannot read property {prop!r} of {to_js_string(obj)}"
        )
    if isinstance(obj, float) and prop == "toString":
        return NativeFunction("toString", lambda *a: format_number(obj))
    return UNDEFINED


def set_member(obj: Any, prop: str, value: Any) -> None:
    if isinstance(obj, HostObject):
        obj.set_member(prop, value)
        return
    if isinstance(obj, JSArray):
        if prop == "length":
            length = int(to_js_number(value))
            del obj.elements[length:]
            return
        try:
            index = int(prop)
        except ValueError:
            obj.set(prop, value)
            return
        while len(obj.elements) <= index:
            obj.elements.append(UNDEFINED)
        obj.elements[index] = value
        return
    if isinstance(obj, JSObject):
        obj.set(prop, value)
        return
    if obj is UNDEFINED or obj is None:
        raise ScriptRuntimeError(
            f"cannot set property {prop!r} of {to_js_string(obj)}"
        )
    # Writes to primitives are silently dropped, as in JS.


# The compiler and VM import this module's shared helpers, so they are bound
# here, after those helpers exist, and looked up as module attributes at call
# time.  Importing the compiler also registers the `adscript_bytecode` cache
# with the process-wide LruCache registry whenever the interpreter module is
# loaded, so service stats and the serve shutdown report see it without extra
# plumbing.
from repro.adscript import bytecode as _bytecode  # noqa: E402
from repro.adscript import vm as _vm  # noqa: E402
