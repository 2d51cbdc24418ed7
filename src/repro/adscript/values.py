"""AdScript value model.

AdScript values map to Python natives where possible (``float``, ``str``,
``bool``, ``None`` for JS ``null``) plus a few wrapper types: a distinct
``undefined`` sentinel, :class:`JSObject`, :class:`JSArray`,
:class:`JSFunction` closures, :class:`NativeFunction` bindings, and the
:class:`HostObject` protocol through which the emulated browser exposes
``document``/``window``/``navigator`` to scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class _Undefined:
    """Singleton JS ``undefined``."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


class JSObject:
    """A plain mutable object (property bag)."""

    def __init__(self, properties: Optional[dict[str, Any]] = None) -> None:
        self.properties: dict[str, Any] = dict(properties or {})

    def get(self, name: str) -> Any:
        return self.properties.get(name, UNDEFINED)

    def set(self, name: str, value: Any) -> None:
        self.properties[name] = value

    def delete(self, name: str) -> bool:
        return self.properties.pop(name, None) is not None

    def keys(self) -> list[str]:
        return list(self.properties)

    def __repr__(self) -> str:
        return f"JSObject({self.properties!r})"


class JSArray(JSObject):
    """An array value."""

    def __init__(self, elements: Optional[list[Any]] = None) -> None:
        super().__init__()
        self.elements: list[Any] = list(elements or [])

    def __repr__(self) -> str:
        return f"JSArray({self.elements!r})"


@dataclass
class JSFunction:
    """A user-defined function closing over its definition environment."""

    name: Optional[str]
    params: list[str]
    body: list[Any]  # list of ast statement nodes
    closure: Any  # Environment; typed loosely to avoid a circular import
    code: Any = None  # bytecode CodeObject; None when made by the tree walker

    def __repr__(self) -> str:
        return f"JSFunction({self.name or '<anonymous>'})"


@dataclass
class NativeFunction:
    """A Python callable exposed to scripts."""

    name: str
    fn: Callable[..., Any]

    def __repr__(self) -> str:
        return f"NativeFunction({self.name})"


class HostObject:
    """Protocol for browser-provided objects (``document``, ``window``...).

    Subclasses override :meth:`get_member` / :meth:`set_member`; attribute
    reads/writes from scripts route through these, which is how side effects
    such as ``top.location = ...`` reach the emulated browser.
    """

    host_name = "HostObject"

    def get_member(self, name: str) -> Any:
        return UNDEFINED

    def set_member(self, name: str, value: Any) -> None:
        raise AttributeError(f"{self.host_name} has no settable member {name!r}")

    def member_names(self) -> list[str]:
        return []

    def __repr__(self) -> str:
        return f"[object {self.host_name}]"


# -- coercions ----------------------------------------------------------------


def js_truthy(value: Any) -> bool:
    """JS ToBoolean."""
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and not math.isnan(value)
    if isinstance(value, str):
        return value != ""
    return True


def format_number(value: float) -> str:
    """JS number-to-string: integers print without a trailing ``.0``."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


def to_js_string(value: Any) -> str:
    """JS ToString."""
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    if isinstance(value, str):
        return value
    if isinstance(value, JSArray):
        return ",".join(to_js_string(el) for el in value.elements)
    if isinstance(value, JSObject):
        return "[object Object]"
    if isinstance(value, (JSFunction, NativeFunction)):
        return f"function {getattr(value, 'name', '') or ''}() {{ [code] }}"
    if isinstance(value, HostObject):
        return repr(value)
    return str(value)


def to_js_number(value: Any) -> float:
    """JS ToNumber (NaN for non-numeric strings/objects)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return 0.0
    if value is UNDEFINED:
        return math.nan
    if isinstance(value, str):
        text = value.strip()
        if text == "":
            return 0.0
        try:
            if text.lower().startswith(("0x", "-0x", "+0x")):
                return float(int(text, 16))
            return float(text)
        except ValueError:
            return math.nan
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return to_js_number(value.elements[0])
        return math.nan
    return math.nan


def js_typeof(value: Any) -> str:
    """JS ``typeof`` operator."""
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JSFunction, NativeFunction)):
        return "function"
    return "object"  # null, objects, arrays, host objects


def js_equals(a: Any, b: Any) -> bool:
    """JS loose equality (``==``), simplified but covering the common cases."""
    if js_strict_equals(a, b):
        return True
    null_like = lambda v: v is None or v is UNDEFINED
    if null_like(a) and null_like(b):
        return True
    if null_like(a) or null_like(b):
        return False
    if isinstance(a, str) and isinstance(b, (int, float)):
        return to_js_number(a) == to_js_number(b)
    if isinstance(b, str) and isinstance(a, (int, float)):
        return to_js_number(b) == to_js_number(a)
    if isinstance(a, bool) or isinstance(b, bool):
        return to_js_number(a) == to_js_number(b)
    if isinstance(a, (JSObject, HostObject)) and isinstance(b, (str, int, float)):
        return to_js_string(a) == to_js_string(b)
    if isinstance(b, (JSObject, HostObject)) and isinstance(a, (str, int, float)):
        return to_js_string(b) == to_js_string(a)
    return False


def js_strict_equals(a: Any, b: Any) -> bool:
    """JS strict equality (``===``)."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)  # NaN handled by float semantics
    if type(a) is type(b) or (a is None and b is None):
        if isinstance(a, (str, float, bool)):
            return a == b
        return a is b
    return a is b


def js_repr(value: Any) -> str:
    """Debug representation used in test assertions and logs."""
    if isinstance(value, str):
        return f'"{value}"'
    return to_js_string(value)
