"""AdScript standard library: string/array methods and global builtins.

The set of builtins mirrors what real 2014-era ad scripts (and their
obfuscators) used: ``eval``, ``unescape``/``escape``, ``String.fromCharCode``,
``parseInt``, ``Math``, ``Date`` stubs, plus the usual string and array
methods.  ``eval`` is important: the honeyclient must observe behaviour that
only exists after runtime decoding.
"""

from __future__ import annotations

import math
from typing import Any, TYPE_CHECKING

from repro.adscript.errors import ScriptRuntimeError
from repro.adscript.values import (
    HostObject,
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    format_number,
    to_js_number,
    to_js_string,
)

if TYPE_CHECKING:
    from repro.adscript.interpreter import Interpreter


# -- string methods -------------------------------------------------------------


def string_member(interp: "Interpreter", s: str, prop: str) -> Any:
    """Resolve property access on a string primitive."""
    if prop == "length":
        return float(len(s))
    try:
        index = int(prop)
    except ValueError:
        pass
    else:
        return s[index] if 0 <= index < len(s) else UNDEFINED

    def method(name: str):  # small helper for registration below
        return NativeFunction(name, _STRING_METHODS[name](interp, s))

    if prop in _STRING_METHODS:
        return method(prop)
    return UNDEFINED


def _clamp_index(s: str, value: Any) -> int:
    n = to_js_number(value)
    if math.isnan(n):
        return 0
    return max(0, min(len(s), int(n)))


def _str_char_at(interp, s):
    return lambda *a: (s[int(to_js_number(a[0]) if a else 0)]
                       if 0 <= int(to_js_number(a[0]) if a else 0) < len(s) else "")


def _str_char_code_at(interp, s):
    def impl(*a):
        i = int(to_js_number(a[0])) if a else 0
        return float(ord(s[i])) if 0 <= i < len(s) else math.nan
    return impl


def _str_index_of(interp, s):
    def impl(*a):
        needle = to_js_string(a[0]) if a else "undefined"
        start = int(to_js_number(a[1])) if len(a) > 1 else 0
        return float(s.find(needle, max(0, start)))
    return impl


def _str_last_index_of(interp, s):
    return lambda *a: float(s.rfind(to_js_string(a[0]) if a else "undefined"))


def _str_substring(interp, s):
    def impl(*a):
        start = _clamp_index(s, a[0]) if a else 0
        end = _clamp_index(s, a[1]) if len(a) > 1 else len(s)
        if start > end:
            start, end = end, start
        return s[start:end]
    return impl


def _str_substr(interp, s):
    def impl(*a):
        start = int(to_js_number(a[0])) if a else 0
        if start < 0:
            start = max(0, len(s) + start)
        length = int(to_js_number(a[1])) if len(a) > 1 else len(s) - start
        return s[start:start + max(0, length)]
    return impl


def _str_slice(interp, s):
    def impl(*a):
        start = int(to_js_number(a[0])) if a else 0
        end = int(to_js_number(a[1])) if len(a) > 1 else len(s)
        return s[slice(start, end)] if (start >= 0 and end >= 0) else s[start:end or None]
    return impl


def _str_split(interp, s):
    def impl(*a):
        if not a or a[0] is UNDEFINED:
            return JSArray([s])
        sep = to_js_string(a[0])
        if sep == "":
            return JSArray(list(s))
        return JSArray(s.split(sep))
    return impl


def _str_replace(interp, s):
    def impl(*a):
        from repro.adscript.stdlib import RegExpObject  # self-import for clarity

        replacement = to_js_string(a[1]) if len(a) > 1 else "undefined"
        if a and isinstance(a[0], RegExpObject):
            return a[0].regex.replace(s, replacement)
        pattern = to_js_string(a[0]) if a else ""
        return s.replace(pattern, replacement, 1)
    return impl


def _str_match(interp, s):
    def impl(*a):
        if not a or not isinstance(a[0], RegExpObject):
            return None
        regexp = a[0]
        if regexp.regex.global_:
            matches = regexp.regex.find_all(s)
            if not matches:
                return None
            return JSArray([m.matched for m in matches])
        return regexp._exec(s)
    return impl


def _str_search(interp, s):
    def impl(*a):
        if not a or not isinstance(a[0], RegExpObject):
            return -1.0
        match = a[0]._search_guarded(s)
        return float(match.start) if match is not None else -1.0
    return impl


def _str_to_lower(interp, s):
    return lambda *a: s.lower()


def _str_to_upper(interp, s):
    return lambda *a: s.upper()


def _str_concat(interp, s):
    return lambda *a: s + "".join(to_js_string(x) for x in a)


def _str_trim(interp, s):
    return lambda *a: s.strip()


def _str_to_string(interp, s):
    return lambda *a: s


_STRING_METHODS = {
    "charAt": _str_char_at,
    "charCodeAt": _str_char_code_at,
    "indexOf": _str_index_of,
    "lastIndexOf": _str_last_index_of,
    "substring": _str_substring,
    "substr": _str_substr,
    "slice": _str_slice,
    "split": _str_split,
    "replace": _str_replace,
    "match": _str_match,
    "search": _str_search,
    "toLowerCase": _str_to_lower,
    "toUpperCase": _str_to_upper,
    "concat": _str_concat,
    "trim": _str_trim,
    "toString": _str_to_string,
    "valueOf": _str_to_string,
}


# -- array methods ----------------------------------------------------------------


def array_member(interp: "Interpreter", arr: JSArray, prop: str) -> Any:
    """Resolve property access on an array."""
    if prop == "length":
        return float(len(arr.elements))
    try:
        index = int(prop)
    except ValueError:
        pass
    else:
        return arr.elements[index] if 0 <= index < len(arr.elements) else UNDEFINED
    if prop in _ARRAY_METHODS:
        return NativeFunction(prop, _ARRAY_METHODS[prop](interp, arr))
    return arr.get(prop)


def _arr_push(interp, arr):
    def impl(*a):
        arr.elements.extend(a)
        return float(len(arr.elements))
    return impl


def _arr_pop(interp, arr):
    return lambda *a: arr.elements.pop() if arr.elements else UNDEFINED


def _arr_shift(interp, arr):
    return lambda *a: arr.elements.pop(0) if arr.elements else UNDEFINED


def _arr_unshift(interp, arr):
    def impl(*a):
        arr.elements[:0] = list(a)
        return float(len(arr.elements))
    return impl


def _arr_join(interp, arr):
    def impl(*a):
        sep = to_js_string(a[0]) if a and a[0] is not UNDEFINED else ","
        return sep.join("" if el is None or el is UNDEFINED else to_js_string(el)
                        for el in arr.elements)
    return impl


def _arr_reverse(interp, arr):
    def impl(*a):
        arr.elements.reverse()
        return arr
    return impl


def _arr_slice(interp, arr):
    def impl(*a):
        start = int(to_js_number(a[0])) if a else 0
        end = int(to_js_number(a[1])) if len(a) > 1 else len(arr.elements)
        return JSArray(arr.elements[start:end])
    return impl


def _arr_index_of(interp, arr):
    def impl(*a):
        from repro.adscript.values import js_strict_equals

        target = a[0] if a else UNDEFINED
        for i, el in enumerate(arr.elements):
            if js_strict_equals(el, target):
                return float(i)
        return -1.0
    return impl


def _arr_concat(interp, arr):
    def impl(*a):
        out = list(arr.elements)
        for item in a:
            if isinstance(item, JSArray):
                out.extend(item.elements)
            else:
                out.append(item)
        return JSArray(out)
    return impl


def _arr_sort(interp, arr):
    def impl(*a):
        if a and a[0] is not UNDEFINED:
            comparator = a[0]
            import functools

            def cmp(x, y):
                return to_js_number(interp.call_function(comparator, [x, y]))

            arr.elements.sort(key=functools.cmp_to_key(lambda x, y: (cmp(x, y) > 0) - (cmp(x, y) < 0)))
        else:
            arr.elements.sort(key=to_js_string)
        return arr
    return impl


_ARRAY_METHODS = {
    "push": _arr_push,
    "pop": _arr_pop,
    "shift": _arr_shift,
    "unshift": _arr_unshift,
    "join": _arr_join,
    "reverse": _arr_reverse,
    "slice": _arr_slice,
    "indexOf": _arr_index_of,
    "concat": _arr_concat,
    "sort": _arr_sort,
}


# -- global builtins -----------------------------------------------------------------


class _MathObject(HostObject):
    """The ``Math`` global.  ``random`` is deterministic, seeded by the embedder."""

    host_name = "Math"

    def __init__(self, interp: "Interpreter") -> None:
        self._interp = interp
        self._members = {
            "floor": NativeFunction("floor", lambda *a: float(math.floor(to_js_number(a[0]))) if a else math.nan),
            "ceil": NativeFunction("ceil", lambda *a: float(math.ceil(to_js_number(a[0]))) if a else math.nan),
            "round": NativeFunction("round", lambda *a: float(math.floor(to_js_number(a[0]) + 0.5)) if a else math.nan),
            "abs": NativeFunction("abs", lambda *a: abs(to_js_number(a[0])) if a else math.nan),
            "max": NativeFunction("max", lambda *a: max((to_js_number(x) for x in a), default=-math.inf)),
            "min": NativeFunction("min", lambda *a: min((to_js_number(x) for x in a), default=math.inf)),
            "pow": NativeFunction("pow", lambda *a: to_js_number(a[0]) ** to_js_number(a[1]) if len(a) > 1 else math.nan),
            "sqrt": NativeFunction("sqrt", lambda *a: math.sqrt(to_js_number(a[0])) if a and to_js_number(a[0]) >= 0 else math.nan),
            "random": NativeFunction("random", self._random),
            "PI": math.pi,
            "E": math.e,
        }

    def _random(self, *args: Any) -> float:
        return self._interp.host_random()

    def get_member(self, name: str) -> Any:
        return self._members.get(name, UNDEFINED)

    def member_names(self) -> list[str]:
        return list(self._members)


class _StringConstructor(HostObject):
    host_name = "String"

    def __init__(self) -> None:
        self._from_char_code = NativeFunction(
            "fromCharCode",
            lambda *a: "".join(chr(int(to_js_number(c)) & 0xFFFF) for c in a),
        )

    def get_member(self, name: str) -> Any:
        if name == "fromCharCode":
            return self._from_char_code
        return UNDEFINED

    def member_names(self) -> list[str]:
        return ["fromCharCode"]


_HEX_DIGITS = set("0123456789abcdefABCDEF")


def _js_unescape(text: str) -> str:
    """The legacy JS ``unescape``: %XX and %uXXXX decoding."""
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "%":
            if text[i + 1:i + 2] == "u":
                hex4 = text[i + 2:i + 6]
                if len(hex4) == 4 and set(hex4) <= _HEX_DIGITS:
                    out.append(chr(int(hex4, 16)))
                    i += 6
                    continue
            hex2 = text[i + 1:i + 3]
            if len(hex2) == 2 and set(hex2) <= _HEX_DIGITS:
                out.append(chr(int(hex2, 16)))
                i += 3
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def _js_escape(text: str) -> str:
    """The legacy JS ``escape``."""
    safe = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789@*_+-./")
    out: list[str] = []
    for ch in text:
        if ch in safe:
            out.append(ch)
        elif ord(ch) < 256:
            out.append(f"%{ord(ch):02X}")
        else:
            out.append(f"%u{ord(ch):04X}")
    return "".join(out)


def _parse_int(*args: Any) -> float:
    if not args:
        return math.nan
    text = to_js_string(args[0]).strip()
    radix = int(to_js_number(args[1])) if len(args) > 1 and to_js_number(args[1]) == to_js_number(args[1]) and to_js_number(args[1]) != 0 else 10
    sign = 1
    if text[:1] in "+-":
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if radix == 16 and text[:2].lower() == "0x":
        text = text[2:]
    elif radix == 10 and text[:2].lower() == "0x":
        radix = 16
        text = text[2:]
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:radix]
    end = 0
    for ch in text:
        if ch.lower() not in digits:
            break
        end += 1
    if end == 0:
        return math.nan
    return float(sign * int(text[:end], radix))


def _parse_float(*args: Any) -> float:
    if not args:
        return math.nan
    text = to_js_string(args[0]).strip()
    end = 0
    seen_dot = False
    seen_digit = False
    for i, ch in enumerate(text):
        if ch in "+-" and i == 0:
            end += 1
        elif ch.isdigit():
            seen_digit = True
            end += 1
        elif ch == "." and not seen_dot:
            seen_dot = True
            end += 1
        else:
            break
    if not seen_digit:
        return math.nan
    return float(text[:end])


class RegExpObject(HostObject):
    """A constructed ``RegExp`` wrapping the from-scratch engine."""

    host_name = "RegExp"

    def __init__(self, pattern: str, flags: str = "") -> None:
        from repro.adscript.errors import ScriptRuntimeError as _Err
        from repro.adscript.regex import RegexSyntaxError, compile_pattern

        try:
            self.regex = compile_pattern(pattern, flags)
        except RegexSyntaxError as exc:
            raise _Err(f"invalid RegExp: {exc}") from exc
        # The compiled regex is immutable, so members memoize on first read
        # (identity-stable bound methods).
        self._members: dict = {}

    def _exec(self, *args: Any) -> Any:
        text = to_js_string(args[0]) if args else "undefined"
        match = self._search_guarded(text)
        if match is None:
            return None
        out = [match.matched]
        for i in range(1, self.regex.n_groups + 1):
            group = match.group(i)
            out.append(UNDEFINED if group is None else group)
        result = JSArray(out)
        result.set("index", float(match.start))
        return result

    def _search_guarded(self, text: str, start: int = 0):
        from repro.adscript.errors import ScriptRuntimeError as _Err
        from repro.adscript.regex import RegexBudgetError

        try:
            return self.regex.search(text, start)
        except RegexBudgetError as exc:
            raise _Err(str(exc)) from exc

    def get_member(self, name: str) -> Any:
        value = self._members.get(name)
        if value is not None:
            return value
        if name == "test":
            value = NativeFunction("test", lambda *a: self._search_guarded(
                to_js_string(a[0]) if a else "undefined") is not None)
        elif name == "exec":
            value = NativeFunction("exec", self._exec)
        elif name == "source":
            value = self.regex.pattern
        elif name == "global":
            value = self.regex.global_
        elif name == "ignoreCase":
            value = self.regex.ignore_case
        else:
            return UNDEFINED
        self._members[name] = value
        return value

    def member_names(self) -> list[str]:
        return ["test", "exec", "source", "global", "ignoreCase"]

    def __repr__(self) -> str:
        return f"/{self.regex.pattern}/{self.regex.flags}"


class _RegExpConstructor(HostObject):
    host_name = "Function"

    def __call__(self, *args: Any) -> RegExpObject:
        pattern = to_js_string(args[0]) if args else ""
        flags = to_js_string(args[1]) if len(args) > 1 and args[1] is not UNDEFINED else ""
        return RegExpObject(pattern, flags)


class _DateObject(HostObject):
    """A constructed ``Date`` bound to one logical timestamp."""

    host_name = "Date"

    def __init__(self, timestamp_ms: float) -> None:
        self.timestamp_ms = float(timestamp_ms)
        # The timestamp is fixed at construction, so accessors memoize on
        # first read (lazily: most Dates are cache-busters that touch one or
        # two members).
        self._members: dict = {}

    def get_member(self, name: str) -> Any:
        value = self._members.get(name)
        if value is not None:
            return value
        if name == "getTime" or name == "valueOf":
            value = NativeFunction(name, lambda *a: self.timestamp_ms)
        elif name == "getFullYear":
            value = NativeFunction(name, lambda *a: 2014.0)
        elif name == "getMonth":
            value = NativeFunction(name, lambda *a: float(int(self.timestamp_ms / 2_592_000_000) % 12))
        elif name == "getDate":
            value = NativeFunction(name, lambda *a: float(int(self.timestamp_ms / 86_400_000) % 28 + 1))
        elif name == "getHours":
            value = NativeFunction(name, lambda *a: float(int(self.timestamp_ms / 3_600_000) % 24))
        elif name == "getDay":
            value = NativeFunction(name, lambda *a: float(int(self.timestamp_ms / 86_400_000) % 7))
        elif name == "toString":
            value = NativeFunction(name, lambda *a: f"[Date {format_number(self.timestamp_ms)}]")
        else:
            return UNDEFINED
        self._members[name] = value
        return value

    def member_names(self) -> list[str]:
        return ["getTime", "getFullYear", "getMonth", "getDate", "getHours"]

    def __repr__(self) -> str:
        return f"[Date {format_number(self.timestamp_ms)}]"


class _DateConstructor(HostObject):
    """The ``Date`` global: constructible, with a static ``now()``.

    Time is a deterministic logical clock supplied by the embedder
    (``interp.host_time``), so cache-buster scripts behave realistically
    without breaking reproducibility.
    """

    host_name = "Function"

    def __init__(self, interp: "Interpreter") -> None:
        self._interp = interp
        self._now = NativeFunction("now", lambda *a: float(interp.host_time()))

    def __call__(self, *args: Any) -> Any:
        if args:
            return _DateObject(to_js_number(args[0]))
        return _DateObject(self._interp.host_time())

    def get_member(self, name: str) -> Any:
        if name == "now":
            return self._now
        return UNDEFINED

    def member_names(self) -> list[str]:
        return ["now"]


def _json_stringify(value: Any) -> str:
    """Minimal ``JSON.stringify`` over AdScript values."""
    if value is UNDEFINED:
        return "null"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(float(value))
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, JSArray):
        return "[" + ",".join(_json_stringify(el) for el in value.elements) + "]"
    if isinstance(value, JSObject):
        parts = [f"{_json_stringify(key)}:{_json_stringify(val)}"
                 for key, val in value.properties.items()]
        return "{" + ",".join(parts) + "}"
    return "null"


def _json_parse(text: str) -> Any:
    """Minimal ``JSON.parse`` producing AdScript values."""
    import json as _json

    from repro.adscript.errors import ScriptRuntimeError as _Err

    def convert(py: Any) -> Any:
        if isinstance(py, dict):
            obj = JSObject()
            for key, val in py.items():
                obj.set(str(key), convert(val))
            return obj
        if isinstance(py, list):
            return JSArray([convert(el) for el in py])
        if isinstance(py, bool) or py is None or isinstance(py, str):
            return py
        return float(py)

    try:
        return convert(_json.loads(text))
    except (ValueError, TypeError) as exc:
        raise _Err(f"JSON.parse: {exc}") from exc


class _JsonObject(HostObject):
    host_name = "JSON"

    def __init__(self) -> None:
        self._members = {
            "stringify": NativeFunction(
                "stringify", lambda *a: _json_stringify(a[0]) if a else "undefined"
            ),
            "parse": NativeFunction(
                "parse", lambda *a: _json_parse(to_js_string(a[0])) if a else UNDEFINED
            ),
        }

    def get_member(self, name: str) -> Any:
        return self._members.get(name, UNDEFINED)

    def member_names(self) -> list[str]:
        return ["stringify", "parse"]


def install_globals(interp: "Interpreter") -> None:
    """Install language-level globals into the interpreter.

    Browser objects (``window``, ``document``...) are installed separately by
    :mod:`repro.browser`.
    """
    g = interp.globals

    def _eval(*args: Any) -> Any:
        if not args or not isinstance(args[0], str):
            return args[0] if args else UNDEFINED
        interp.record_eval(args[0])
        return interp.eval_source(args[0])

    g.declare("eval", NativeFunction("eval", _eval))
    g.declare("unescape", NativeFunction("unescape", lambda *a: _js_unescape(to_js_string(a[0])) if a else ""))
    g.declare("escape", NativeFunction("escape", lambda *a: _js_escape(to_js_string(a[0])) if a else ""))
    g.declare("decodeURIComponent", NativeFunction("decodeURIComponent", lambda *a: _js_unescape(to_js_string(a[0])) if a else ""))
    g.declare("encodeURIComponent", NativeFunction("encodeURIComponent", lambda *a: _js_escape(to_js_string(a[0])) if a else ""))
    g.declare("parseInt", NativeFunction("parseInt", _parse_int))
    g.declare("parseFloat", NativeFunction("parseFloat", _parse_float))
    g.declare("isNaN", NativeFunction("isNaN", lambda *a: math.isnan(to_js_number(a[0])) if a else True))
    g.declare("NaN", math.nan)
    g.declare("Infinity", math.inf)
    g.declare("Math", _MathObject(interp))
    g.declare("String", _StringConstructor())
    g.declare(
        "Array",
        NativeFunction("Array", lambda *a: JSArray([UNDEFINED] * int(to_js_number(a[0])))
                       if len(a) == 1 and isinstance(a[0], float) else JSArray(list(a))),
    )
    g.declare("Object", NativeFunction("Object", lambda *a: JSObject()))
    g.declare("Error", NativeFunction("Error", lambda *a: JSObject(
        {"message": to_js_string(a[0]) if a else "", "name": "Error"})))
    g.declare("Date", _DateConstructor(interp))
    g.declare("JSON", _JsonObject())
    g.declare("RegExp", _RegExpConstructor())

    # Hooks the embedder may override; defaults keep the interpreter standalone.
    if not hasattr(interp, "host_random"):
        interp.host_random = lambda: 0.5  # type: ignore[attr-defined]
    if not hasattr(interp, "record_eval"):
        interp.record_eval = lambda source: None  # type: ignore[attr-defined]
    if not hasattr(interp, "host_time"):
        # Logical milliseconds: monotone, deterministic, Jan-2014-flavoured.
        def _next_time() -> float:
            interp._logical_clock = getattr(interp, "_logical_clock", 1_388_534_400_000) + 137
            return float(interp._logical_clock)

        interp.host_time = _next_time  # type: ignore[attr-defined]
