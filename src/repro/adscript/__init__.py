"""AdScript: a from-scratch JavaScript-subset engine.

The paper's oracle (Wepawet) executes the JavaScript embedded in
advertisements inside an emulated browser and watches its behaviour.  This
package provides that capability: a lexer, a recursive-descent parser, a
bytecode compiler and VM (with a tree-walking reference interpreter in
:mod:`repro.adscript.tree`) for the JavaScript subset that ad creatives in the
simulated ecosystem use — including the obfuscation primitives
(``eval``, ``unescape``, ``String.fromCharCode``) that real malvertising
droppers rely on, so detection cannot simply pattern-match source text.
"""

from repro.adscript.errors import (
    AdScriptError,
    BudgetExceededError,
    LexError,
    ParseError,
    ScriptRuntimeError,
)
from repro.adscript.interpreter import Interpreter
from repro.adscript.lexer import tokenize
from repro.adscript.parser import parse_program
from repro.adscript.values import (
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    js_repr,
    js_truthy,
    to_js_string,
)

__all__ = [
    "AdScriptError",
    "BudgetExceededError",
    "Interpreter",
    "JSFunction",
    "JSObject",
    "LexError",
    "NativeFunction",
    "ParseError",
    "ScriptRuntimeError",
    "UNDEFINED",
    "js_repr",
    "js_truthy",
    "parse_program",
    "to_js_string",
    "tokenize",
]
