"""AdScript bytecode compiler.

Compiles :class:`~repro.adscript.ast_nodes.Program` trees to a compact
stack bytecode executed by :mod:`repro.adscript.vm`.  The contract with the
tree-walking interpreter is **bit-for-bit observable equivalence**: identical
results, identical error messages, identical HostObject property traffic in
identical order, and identical step-budget accounting.

Step-accounting contract
------------------------
The tree-walker charges one step per ``execute()``/``evaluate()``/``_call()``
entry.  The compiler maps every one of those ticks onto instruction ``cost``
fields, charged by the VM *before* the instruction's operation runs:

* compiling a statement or expression adds 1 to a *pending* counter;
* ``emit()`` attaches the accumulated pending ticks (plus any per-opcode
  extra, e.g. the ``_call`` tick on CALL instructions) to the instruction it
  emits and resets the counter;
* pending ticks are only ever flushed *forward* into the next emitted
  instruction, never across a jump target or segment boundary (``label()``
  and segment ends flush into an explicit NOP).

Because the tree-walker also charges each tick before doing the node's work,
and pending never crosses an instruction that has side effects, the VM's
:class:`BudgetExceededError` fires at the same side-effect boundary as the
tree-walker's on any script, including busy loops.

Constant folding collapses literal-only subtrees into a single CONST whose
cost equals the full tick count the tree-walker would have charged for the
subtree, so folding is invisible to budget accounting.

Slot resolution
---------------
Function locals are pre-resolved to integer slots when (and only when) the
function body contains no nested functions and no catch parameter or
catch-scoped ``var`` collides with a slot candidate (``this``, ``arguments``,
the parameters, and every ``var`` declared outside catch blocks).  Slots may
legitimately be *unbound* before their ``var`` executes (AdScript does not
hoist ``var``), in which case slot opcodes fall back to the environment
chain — exactly the lookup the tree-walker would have done.  Everything else
(program scope, closures, catch scopes, sloppy globals, host objects) uses
name-based opcodes against the live environment chain.

Compiled ``CodeObject``s are cached in the hash-addressed ``LruCache``
registry under ``adscript_bytecode``, keyed by the sha256 of the source, so
warm renders skip parse *and* compile.  The AST is parsed on a miss and not
kept: only the frozen function bodies a ``CodeObject`` references survive.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.adscript import ast_nodes as ast
from repro.adscript.errors import ScriptRuntimeError
from repro.adscript.interpreter import binary_op, to_int32
from repro.adscript.parser import parse_program
from repro.adscript.values import (
    UNDEFINED,
    js_truthy,
    js_typeof,
    to_js_number,
)
from repro.util.lru import LruCache

# -- opcodes -------------------------------------------------------------------

_OPCODE_NAMES = (
    "NOP",
    "POP",
    "DUP",
    "CONST",
    "LOAD_NAME",
    "LOAD_NAME_SOFT",
    "STORE_NAME",
    "DECLARE_NAME",
    "TYPEOF_NAME",
    "LOAD_LOCAL",
    "LOAD_LOCAL_SOFT",
    "STORE_LOCAL",
    "DECLARE_LOCAL",
    "TYPEOF_LOCAL",
    "THIS_SLOT",
    "THIS_DYN",
    "UNARY_NOT",
    "UNARY_NEG",
    "UNARY_PLUS",
    "UNARY_BNOT",
    "TYPEOF_VALUE",
    "BINARY",
    "BIN_ADD",
    "BIN_SUB",
    "BIN_MUL",
    "BIN_LT",
    "BIN_LE",
    "BIN_GT",
    "BIN_GE",
    "BIN_SEQ",
    "INCDEC",
    "JUMP",
    "JUMP_IF_FALSE",
    "JUMP_IF_TRUE",
    "JUMP_IF_FALSY_KEEP",
    "JUMP_IF_TRUTHY_KEEP",
    "JUMP_IF_CASE",
    "GET_MEMBER",
    "GET_MEMBER_DYN",
    "SET_MEMBER",
    "SET_MEMBER_DYN",
    "DELETE_MEMBER",
    "DELETE_MEMBER_DYN",
    "GET_METHOD",
    "GET_METHOD_DYN",
    "CALL_FUNCTION",
    "CALL_METHOD",
    "NEW",
    "BUILD_ARRAY",
    "BUILD_OBJECT",
    "MAKE_FUNCTION",
    "SET_RESULT",
    "RETURN_VALUE",
    "RAISE_RETURN",
    "RAISE_BREAK",
    "RAISE_CONTINUE",
    "RAISE_ERROR",
    "THROW",
    "SETUP_LOOP",
    "SETUP_SWITCH",
    "POP_BLOCK",
    "FORIN_PREP",
    "FORIN_DECLARE",
    "FORIN_NEXT",
    "EXEC_TRY",
)

# Export OP_<NAME> integer constants.
for _i, _n in enumerate(_OPCODE_NAMES):
    globals()["OP_" + _n] = _i
del _i, _n

OP_NAMES = _OPCODE_NAMES

# Binary operators with dedicated fast opcodes; everything else goes through
# the generic BINARY instruction with the operator string as operand.
_FAST_BINOPS = {
    "+": OP_BIN_ADD,  # noqa: F821
    "-": OP_BIN_SUB,  # noqa: F821
    "*": OP_BIN_MUL,  # noqa: F821
    "<": OP_BIN_LT,  # noqa: F821
    "<=": OP_BIN_LE,  # noqa: F821
    ">": OP_BIN_GT,  # noqa: F821
    ">=": OP_BIN_GE,  # noqa: F821
    "===": OP_BIN_SEQ,  # noqa: F821
}


class CodeObject:
    """A compiled unit: a whole program or one function body.

    ``ops``/``args``/``costs``/``lines`` are parallel tuples (flat register-
    free instruction stream); ``args`` holds Python operand objects directly.
    Immutable after compilation, so instances are shared freely across
    threads and interpreters via the compile cache.
    """

    __slots__ = (
        "name",
        "kind",
        "ops",
        "args",
        "costs",
        "lines",
        "slot_names",
        "param_slots",
        "hoisted",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        ops: tuple,
        args: tuple,
        costs: tuple,
        lines: tuple,
        slot_names: Optional[tuple],
        param_slots: Optional[tuple],
        hoisted: tuple,
    ) -> None:
        self.name = name
        self.kind = kind  # 'program' | 'function'
        self.ops = ops
        self.args = args
        self.costs = costs
        self.lines = lines
        self.slot_names = slot_names  # tuple => slot mode; None => dynamic
        self.param_slots = param_slots
        self.hoisted = hoisted  # ((name, FunctionMeta), ...) direct-body decls


class FunctionMeta:
    """Compile-time description of a function literal (MAKE_FUNCTION operand)."""

    __slots__ = ("name", "params", "body", "code", "named")

    def __init__(self, name, params, body, code, named):
        self.name = name
        self.params = params  # the AST's param list (shared, never mutated)
        self.body = body  # the AST body, copied onto each JSFunction made
        self.code = code
        self.named = named  # named function expression: self-binding scope

    def __repr__(self) -> str:  # for disassembly listings
        return f"<function {self.name or '<anonymous>'}>"


# -- slot analysis -------------------------------------------------------------


def _iter_children(node):
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item
                elif isinstance(item, (list, tuple)):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield sub


def _function_layout(params, body):
    """Slot layout for a function body, or ``None`` to force dynamic names.

    Slots: 0=this, 1=arguments, then params, then ``var`` names declared
    outside catch blocks in source order.  Dynamic mode is forced when the
    body contains any nested function (its closure must see a real
    environment chain) or when a catch parameter / catch-scoped ``var``
    shadows a slot candidate (catch scopes are real child environments).
    """
    has_nested = False
    var_order: list = []
    var_seen: set = set()
    catch_names: set = set()

    def walk(node, in_catch):
        nonlocal has_nested
        t = type(node)
        if t is ast.FunctionExpression or t is ast.FunctionDeclaration:
            has_nested = True
            return
        if t is ast.VarDeclaration:
            for name, init in node.declarations:
                if in_catch:
                    catch_names.add(name)
                elif name not in var_seen:
                    var_seen.add(name)
                    var_order.append(name)
                if init is not None:
                    walk(init, in_catch)
            return
        if t is ast.TryStatement:
            walk(node.block, in_catch)
            if node.catch_block is not None:
                catch_names.add(node.catch_param or "e")
                walk(node.catch_block, True)
            if node.finally_block is not None:
                walk(node.finally_block, in_catch)
            return
        for child in _iter_children(node):
            walk(child, in_catch)

    for statement in body:
        walk(statement, False)
        if has_nested:
            return None

    slot_names = ["this", "arguments"]
    slot_map = {"this": 0, "arguments": 1}
    for name in list(params) + var_order:
        if name not in slot_map:
            slot_map[name] = len(slot_names)
            slot_names.append(name)
    if catch_names & slot_map.keys():
        return None
    param_slots = tuple(slot_map[p] for p in params)
    return tuple(slot_names), slot_map, param_slots


# -- compiler ------------------------------------------------------------------


class _LoopCtx:
    __slots__ = ("is_switch", "breaks", "continues")

    def __init__(self, is_switch: bool = False) -> None:
        self.is_switch = is_switch
        self.breaks: list = []
        self.continues: list = []


class Compiler:
    def __init__(
        self,
        kind: str,
        slot_map: Optional[dict] = None,
        slot_names: Optional[tuple] = None,
        param_slots: Optional[tuple] = None,
    ) -> None:
        self.kind = kind
        self.slot_map = slot_map or {}
        self.slot_names = slot_names
        self.param_slots = param_slots
        self.ops: list = []
        self.args: list = []
        self.costs: list = []
        self.lines: list = []
        self.pending = 0  # tree-walker ticks owed to the next instruction
        self.loops: list = []
        self.try_depth = 0
        self.cur_line = 0
        self._meta_memo: dict = {}

    # -- emission helpers --

    def emit(self, op: int, arg: Any = None, extra: int = 0) -> int:
        self.ops.append(op)
        self.args.append(arg)
        self.costs.append(self.pending + extra)
        self.lines.append(self.cur_line)
        self.pending = 0
        return len(self.ops) - 1

    def flush(self) -> None:
        """Charge any owed ticks here, so they cannot drift past a jump
        target or segment boundary onto a path that should not pay them."""
        if self.pending:
            self.emit(OP_NOP)  # noqa: F821

    def label(self) -> int:
        self.flush()
        return len(self.ops)

    def patch(self, idx: int, target: int) -> None:
        self.args[idx] = target

    # -- name resolution --

    def _slot(self, name: str) -> Optional[int]:
        return self.slot_map.get(name)

    def _emit_load(self, name: str, soft: bool = False) -> None:
        slot = self._slot(name)
        if slot is not None:
            self.emit(OP_LOAD_LOCAL_SOFT if soft else OP_LOAD_LOCAL, slot)  # noqa: F821
        else:
            self.emit(OP_LOAD_NAME_SOFT if soft else OP_LOAD_NAME, name)  # noqa: F821

    def _emit_store(self, name: str) -> None:
        slot = self._slot(name)
        if slot is not None:
            self.emit(OP_STORE_LOCAL, slot)  # noqa: F821
        else:
            self.emit(OP_STORE_NAME, name)  # noqa: F821

    def _emit_declare(self, name: str) -> None:
        slot = self._slot(name)
        if slot is not None:
            self.emit(OP_DECLARE_LOCAL, slot)  # noqa: F821
        else:
            self.emit(OP_DECLARE_NAME, name)  # noqa: F821

    # -- constant folding --

    def _fold(self, node):
        """``(value, ticks)`` when the subtree is a pure literal expression,
        else ``None``.  ``ticks`` is exactly what the tree-walker would
        charge to evaluate the subtree."""
        t = type(node)
        if t is ast.NumberLiteral or t is ast.StringLiteral or t is ast.BooleanLiteral:
            return (node.value, 1)
        if t is ast.NullLiteral:
            return (None, 1)
        if t is ast.UndefinedLiteral:
            return (UNDEFINED, 1)
        if t is ast.UnaryOp and node.op in ("!", "-", "+", "~", "typeof"):
            sub = self._fold(node.operand)
            if sub is None:
                return None
            value, ticks = sub
            try:
                if node.op == "!":
                    result = not js_truthy(value)
                elif node.op == "-":
                    result = -to_js_number(value)
                elif node.op == "+":
                    result = to_js_number(value)
                elif node.op == "~":
                    result = float(~to_int32(value))
                else:
                    result = js_typeof(value)
            except Exception:
                return None
            return (result, 1 + ticks)
        if t is ast.BinaryOp:
            left = self._fold(node.left)
            if left is None:
                return None
            right = self._fold(node.right)
            if right is None:
                return None
            if node.op == ",":
                return (right[0], 1 + left[1] + right[1])
            try:
                result = binary_op(node.op, left[0], right[0])
            except Exception:
                return None
            return (result, 1 + left[1] + right[1])
        if t is ast.LogicalOp:
            left = self._fold(node.left)
            if left is None:
                return None
            lv, lt = left
            takes_right = js_truthy(lv) if node.op == "&&" else not js_truthy(lv)
            if not takes_right:
                return (lv, 1 + lt)
            right = self._fold(node.right)
            if right is None:
                return None
            return (right[0], 1 + lt + right[1])
        if t is ast.Conditional:
            test = self._fold(node.test)
            if test is None:
                return None
            branch = node.consequent if js_truthy(test[0]) else node.alternate
            sub = self._fold(branch)
            if sub is None:
                return None
            return (sub[0], 1 + test[1] + sub[1])
        return None

    # -- expressions --

    def expr(self, node) -> None:
        folded = self._fold(node)
        if folded is not None:
            value, ticks = folded
            self.cur_line = getattr(node, "line", self.cur_line)
            self.pending += ticks
            self.emit(OP_CONST, value)  # noqa: F821
            return
        self.cur_line = getattr(node, "line", self.cur_line)
        self.pending += 1
        handler = _EXPR.get(type(node))
        if handler is None:
            raise ScriptRuntimeError(f"cannot evaluate node {type(node).__name__}")
        handler(self, node)

    def _expr_Identifier(self, node) -> None:
        self._emit_load(node.name)

    def _expr_ThisExpression(self, node) -> None:
        if "this" in self.slot_map:
            self.emit(OP_THIS_SLOT, self.slot_map["this"])  # noqa: F821
        else:
            self.emit(OP_THIS_DYN)  # noqa: F821

    def _expr_ArrayLiteral(self, node) -> None:
        for element in node.elements:
            self.expr(element)
        self.emit(OP_BUILD_ARRAY, len(node.elements))  # noqa: F821

    def _expr_ObjectLiteral(self, node) -> None:
        keys = []
        for key, value_node in node.entries:
            keys.append(key)
            self.expr(value_node)
        self.emit(OP_BUILD_OBJECT, tuple(keys))  # noqa: F821

    def _expr_FunctionExpression(self, node) -> None:
        self.emit(OP_MAKE_FUNCTION, self._function_meta(node, named=bool(node.name)))  # noqa: F821

    def _expr_UnaryOp(self, node) -> None:
        op = node.op
        if op == "typeof":
            operand = node.operand
            if isinstance(operand, ast.Identifier):
                slot = self._slot(operand.name)
                if slot is not None:
                    self.emit(OP_TYPEOF_LOCAL, slot)  # noqa: F821
                else:
                    self.emit(OP_TYPEOF_NAME, operand.name)  # noqa: F821
                return
            self.expr(operand)
            self.emit(OP_TYPEOF_VALUE)  # noqa: F821
            return
        if op == "delete":
            operand = node.operand
            if isinstance(operand, ast.Member):
                self.expr(operand.obj)
                if operand.computed:
                    self.expr(operand.prop)
                    self.emit(OP_DELETE_MEMBER_DYN)  # noqa: F821
                else:
                    self.emit(OP_DELETE_MEMBER, operand.prop.value)  # noqa: F821
                return
            # Non-member delete returns true without evaluating the operand.
            self.emit(OP_CONST, True)  # noqa: F821
            return
        self.expr(node.operand)
        if op == "!":
            self.emit(OP_UNARY_NOT)  # noqa: F821
        elif op == "-":
            self.emit(OP_UNARY_NEG)  # noqa: F821
        elif op == "+":
            self.emit(OP_UNARY_PLUS)  # noqa: F821
        elif op == "~":
            self.emit(OP_UNARY_BNOT)  # noqa: F821
        else:
            self.emit(OP_RAISE_ERROR, f"unknown unary operator {op}")  # noqa: F821

    def _expr_UpdateExpression(self, node) -> None:
        target = node.target
        delta = 1.0 if node.op == "++" else -1.0
        if isinstance(target, ast.Identifier):
            self._emit_load(target.name, soft=True)
            self.emit(OP_INCDEC, (delta, node.prefix))  # noqa: F821
            self._emit_store(target.name)
            return
        if isinstance(target, ast.Member):
            self._member_read(target)
            self.emit(OP_INCDEC, (delta, node.prefix))  # noqa: F821
            # The tree-walker re-evaluates the member target for the write
            # (observable double evaluation); mirror it exactly.
            self._member_write(target)
            return
        self.emit(OP_RAISE_ERROR, "invalid assignment target")  # noqa: F821

    def _expr_BinaryOp(self, node) -> None:
        if node.op == ",":
            self.expr(node.left)
            self.emit(OP_POP)  # noqa: F821
            self.expr(node.right)
            return
        self.expr(node.left)
        self.expr(node.right)
        fast = _FAST_BINOPS.get(node.op)
        if fast is not None:
            self.emit(fast)
        else:
            self.emit(OP_BINARY, node.op)  # noqa: F821

    def _expr_LogicalOp(self, node) -> None:
        self.expr(node.left)
        jump = self.emit(
            OP_JUMP_IF_FALSY_KEEP if node.op == "&&" else OP_JUMP_IF_TRUTHY_KEEP  # noqa: F821
        )
        self.expr(node.right)
        self.patch(jump, self.label())

    def _expr_Conditional(self, node) -> None:
        self.expr(node.test)
        jump_false = self.emit(OP_JUMP_IF_FALSE)  # noqa: F821
        self.expr(node.consequent)
        jump_end = self.emit(OP_JUMP)  # noqa: F821
        self.patch(jump_false, self.label())
        self.expr(node.alternate)
        self.patch(jump_end, self.label())

    def _expr_Assignment(self, node) -> None:
        target = node.target
        valid = isinstance(target, (ast.Identifier, ast.Member))
        if node.op == "=":
            self.expr(node.value)
            if not valid:
                self.emit(OP_RAISE_ERROR, "invalid assignment target")  # noqa: F821
                return
        else:
            if not valid:
                self.emit(OP_RAISE_ERROR, "invalid assignment target")  # noqa: F821
                return
            if isinstance(target, ast.Identifier):
                self._emit_load(target.name, soft=True)
            else:
                self._member_read(target)
            self.expr(node.value)
            fast = _FAST_BINOPS.get(node.op[:-1])
            if fast is not None:
                self.emit(fast)
            else:
                self.emit(OP_BINARY, node.op[:-1])  # noqa: F821
        self.emit(OP_DUP)  # noqa: F821
        if isinstance(target, ast.Identifier):
            self._emit_store(target.name)
        else:
            self._member_write(target)

    def _member_read(self, node) -> None:
        """obj/prop evaluation + read, exactly as ``_eval_Member`` orders it."""
        self.expr(node.obj)
        if node.computed:
            self.expr(node.prop)
            self.emit(OP_GET_MEMBER_DYN)  # noqa: F821
        else:
            self.emit(OP_GET_MEMBER, node.prop.value)  # noqa: F821

    def _member_write(self, node) -> None:
        """Consumes the value below the freshly evaluated obj(/prop)."""
        self.expr(node.obj)
        if node.computed:
            self.expr(node.prop)
            self.emit(OP_SET_MEMBER_DYN)  # noqa: F821
        else:
            self.emit(OP_SET_MEMBER, node.prop.value)  # noqa: F821

    def _expr_Member(self, node) -> None:
        self._member_read(node)

    def _expr_Call(self, node) -> None:
        callee = node.callee
        if isinstance(callee, ast.Member):
            self.expr(callee.obj)
            if callee.computed:
                self.expr(callee.prop)
                self.emit(OP_GET_METHOD_DYN)  # noqa: F821
            else:
                self.emit(OP_GET_METHOD, callee.prop.value)  # noqa: F821
            for arg in node.args:
                self.expr(arg)
            self.emit(OP_CALL_METHOD, len(node.args), extra=1)  # noqa: F821
            return
        self.expr(callee)
        for arg in node.args:
            self.expr(arg)
        self.emit(OP_CALL_FUNCTION, len(node.args), extra=1)  # noqa: F821

    def _expr_New(self, node) -> None:
        self.expr(node.callee)
        for arg in node.args:
            self.expr(arg)
        # No eager extra tick: the tree-walker only pays the _call tick on
        # the JSFunction branch, so NEW charges it at runtime.
        self.emit(OP_NEW, len(node.args))  # noqa: F821

    # -- statements --

    def stmt(self, node, toplevel: bool = False) -> None:
        self.cur_line = getattr(node, "line", self.cur_line)
        self.pending += 1
        t = type(node)
        if t is ast.ExpressionStatement:
            self.expr(node.expression)
            self.emit(OP_SET_RESULT if toplevel else OP_POP)  # noqa: F821
            return
        handler = _STMT.get(t)
        if handler is None:
            # The tree-walker falls through execute() -> evaluate() for
            # non-statement nodes (a second tick, then expression handling).
            self.expr(node)
            self.emit(OP_POP)  # noqa: F821
            return
        handler(self, node)

    def _stmt_EmptyStatement(self, node) -> None:
        pass  # the statement tick stays pending and flushes forward

    def _stmt_VarDeclaration(self, node) -> None:
        for name, init in node.declarations:
            if init is not None:
                self.expr(init)
            else:
                self.emit(OP_CONST, UNDEFINED)  # noqa: F821
            self._emit_declare(name)

    def _stmt_Block(self, node) -> None:
        for statement in node.body:
            self.stmt(statement)

    def _stmt_IfStatement(self, node) -> None:
        self.expr(node.test)
        jump_false = self.emit(OP_JUMP_IF_FALSE)  # noqa: F821
        self.stmt(node.consequent)
        if node.alternate is not None:
            jump_end = self.emit(OP_JUMP)  # noqa: F821
            self.patch(jump_false, self.label())
            self.stmt(node.alternate)
            self.patch(jump_end, self.label())
        else:
            self.patch(jump_false, self.label())

    def _stmt_WhileStatement(self, node) -> None:
        setup = self.emit(OP_SETUP_LOOP)  # noqa: F821
        ctx = _LoopCtx()
        self.loops.append(ctx)
        l_test = self.label()
        self.expr(node.test)
        jump_exit = self.emit(OP_JUMP_IF_FALSE)  # noqa: F821
        self.stmt(node.body)
        self.emit(OP_JUMP, l_test)  # noqa: F821
        l_exit = self.label()
        self.emit(OP_POP_BLOCK)  # noqa: F821
        l_after = len(self.ops)
        self.loops.pop()
        self.patch(jump_exit, l_exit)
        for idx in ctx.breaks:
            self.patch(idx, l_exit)
        for idx in ctx.continues:
            self.patch(idx, l_test)
        self.args[setup] = (l_after, l_test)

    def _stmt_DoWhileStatement(self, node) -> None:
        setup = self.emit(OP_SETUP_LOOP)  # noqa: F821
        ctx = _LoopCtx()
        self.loops.append(ctx)
        l_body = self.label()
        self.stmt(node.body)
        l_test = self.label()
        self.expr(node.test)
        self.emit(OP_JUMP_IF_TRUE, l_body)  # noqa: F821
        l_exit = self.label()
        self.emit(OP_POP_BLOCK)  # noqa: F821
        l_after = len(self.ops)
        self.loops.pop()
        for idx in ctx.breaks:
            self.patch(idx, l_exit)
        for idx in ctx.continues:
            self.patch(idx, l_test)
        self.args[setup] = (l_after, l_test)

    def _stmt_ForStatement(self, node) -> None:
        if node.init is not None:
            self.stmt(node.init)
        setup = self.emit(OP_SETUP_LOOP)  # noqa: F821
        ctx = _LoopCtx()
        self.loops.append(ctx)
        l_test = self.label()
        jump_exit = None
        if node.test is not None:
            self.expr(node.test)
            jump_exit = self.emit(OP_JUMP_IF_FALSE)  # noqa: F821
        self.stmt(node.body)
        l_cont = self.label()
        if node.update is not None:
            self.expr(node.update)
            self.emit(OP_POP)  # noqa: F821
        self.emit(OP_JUMP, l_test)  # noqa: F821
        l_exit = self.label()
        self.emit(OP_POP_BLOCK)  # noqa: F821
        l_after = len(self.ops)
        self.loops.pop()
        if jump_exit is not None:
            self.patch(jump_exit, l_exit)
        for idx in ctx.breaks:
            self.patch(idx, l_exit)
        for idx in ctx.continues:
            self.patch(idx, l_cont)
        self.args[setup] = (l_after, l_cont)

    def _stmt_ForInStatement(self, node) -> None:
        self.expr(node.obj)
        self.emit(OP_FORIN_PREP)  # noqa: F821
        slot = self._slot(node.var_name)
        spec = (slot, node.var_name)
        self.emit(OP_FORIN_DECLARE, spec)  # noqa: F821
        setup = self.emit(OP_SETUP_LOOP)  # noqa: F821
        ctx = _LoopCtx()
        self.loops.append(ctx)
        l_next = self.label()
        forin_next = self.emit(OP_FORIN_NEXT)  # noqa: F821
        self.stmt(node.body)
        self.emit(OP_JUMP, l_next)  # noqa: F821
        l_exit = self.label()
        self.emit(OP_POP_BLOCK)  # noqa: F821
        l_exit2 = len(self.ops)
        self.emit(OP_POP)  # noqa: F821  (iteration state)
        l_after = len(self.ops)
        self.loops.pop()
        self.args[forin_next] = (l_exit, spec)
        for idx in ctx.breaks:
            self.patch(idx, l_exit)
        for idx in ctx.continues:
            self.patch(idx, l_next)
        self.args[setup] = (l_exit2, l_next)

    def _stmt_SwitchStatement(self, node) -> None:
        self.expr(node.discriminant)
        setup = self.emit(OP_SETUP_SWITCH)  # noqa: F821
        ctx = _LoopCtx(is_switch=True)
        self.loops.append(ctx)
        case_jumps = []
        for i, case in enumerate(node.cases):
            if case.test is not None:
                self.emit(OP_DUP)  # noqa: F821
                self.expr(case.test)
                case_jumps.append((i, self.emit(OP_JUMP_IF_CASE)))  # noqa: F821
        self.emit(OP_POP)  # noqa: F821  (discriminant: no case matched)
        jump_default = self.emit(OP_JUMP)  # noqa: F821
        body_labels = []
        for case in node.cases:
            body_labels.append(self.label())
            for statement in case.body:
                self.stmt(statement)
        l_exit = self.label()
        self.emit(OP_POP_BLOCK)  # noqa: F821
        l_after = len(self.ops)
        self.loops.pop()
        for i, idx in case_jumps:
            self.patch(idx, body_labels[i])
        default_target = l_exit
        for i, case in enumerate(node.cases):
            if case.test is None:
                default_target = body_labels[i]
                break
        self.patch(jump_default, default_target)
        for idx in ctx.breaks:
            self.patch(idx, l_exit)
        self.args[setup] = l_after

    def _stmt_ReturnStatement(self, node) -> None:
        if node.argument is not None:
            self.expr(node.argument)
        else:
            self.emit(OP_CONST, UNDEFINED)  # noqa: F821
        if self.kind == "function" and self.try_depth == 0:
            self.emit(OP_RETURN_VALUE)  # noqa: F821
        else:
            # Inside try segments (a Python finally must run) or at program
            # top level (converted to "return outside function" upstream).
            self.emit(OP_RAISE_RETURN)  # noqa: F821

    def _stmt_BreakStatement(self, node) -> None:
        if self.loops:
            self.loops[-1].breaks.append(self.emit(OP_JUMP))  # noqa: F821
        else:
            self.emit(OP_RAISE_BREAK)  # noqa: F821

    def _stmt_ContinueStatement(self, node) -> None:
        target = None
        skipped_switches = 0
        for ctx in reversed(self.loops):
            if ctx.is_switch:
                skipped_switches += 1
            else:
                target = ctx
                break
        if target is None:
            self.emit(OP_RAISE_CONTINUE)  # noqa: F821
            return
        # A compiled jump bypasses the switches' POP_BLOCK epilogues, so
        # unwind their runtime block entries explicitly first.
        for _ in range(skipped_switches):
            self.emit(OP_POP_BLOCK)  # noqa: F821
        target.continues.append(self.emit(OP_JUMP))  # noqa: F821

    def _stmt_ThrowStatement(self, node) -> None:
        self.expr(node.argument)
        self.emit(OP_THROW)  # noqa: F821

    def _stmt_TryStatement(self, node) -> None:
        exec_try = self.emit(OP_EXEC_TRY)  # noqa: F821
        jump_over = self.emit(OP_JUMP)  # noqa: F821
        saved_loops, self.loops = self.loops, []
        self.try_depth += 1
        try:
            t0 = len(self.ops)
            self.stmt(node.block)
            self.flush()
            t1 = len(self.ops)
            c0 = c1 = None
            catch_param = None
            if node.catch_block is not None:
                catch_param = node.catch_param or "e"
                c0 = len(self.ops)
                self.stmt(node.catch_block)
                self.flush()
                c1 = len(self.ops)
            f0 = f1 = None
            if node.finally_block is not None:
                f0 = len(self.ops)
                self.stmt(node.finally_block)
                self.flush()
                f1 = len(self.ops)
        finally:
            self.loops = saved_loops
            self.try_depth -= 1
        self.args[exec_try] = (t0, t1, catch_param, c0, c1, f0, f1)
        self.patch(jump_over, len(self.ops))

    def _stmt_FunctionDeclaration(self, node) -> None:
        self.emit(OP_MAKE_FUNCTION, self._function_meta(node, named=False))  # noqa: F821
        self._emit_declare(node.name)

    def _function_meta(self, node, named: bool) -> FunctionMeta:
        meta = self._meta_memo.get(id(node))
        if meta is None:
            meta = FunctionMeta(
                node.name,
                node.params,
                node.body,
                compile_function_code(node.name, node.params, node.body),
                named,
            )
            self._meta_memo[id(node)] = meta
        return meta

    def finish(self, name: str, hoisted: tuple = ()) -> CodeObject:
        return CodeObject(
            name=name,
            kind=self.kind,
            ops=tuple(self.ops),
            args=tuple(self.args),
            costs=tuple(self.costs),
            lines=tuple(self.lines),
            slot_names=self.slot_names,
            param_slots=self.param_slots,
            hoisted=hoisted,
        )


_STMT = {
    ast.EmptyStatement: Compiler._stmt_EmptyStatement,
    ast.VarDeclaration: Compiler._stmt_VarDeclaration,
    ast.Block: Compiler._stmt_Block,
    ast.IfStatement: Compiler._stmt_IfStatement,
    ast.WhileStatement: Compiler._stmt_WhileStatement,
    ast.DoWhileStatement: Compiler._stmt_DoWhileStatement,
    ast.ForStatement: Compiler._stmt_ForStatement,
    ast.ForInStatement: Compiler._stmt_ForInStatement,
    ast.SwitchStatement: Compiler._stmt_SwitchStatement,
    ast.ReturnStatement: Compiler._stmt_ReturnStatement,
    ast.BreakStatement: Compiler._stmt_BreakStatement,
    ast.ContinueStatement: Compiler._stmt_ContinueStatement,
    ast.ThrowStatement: Compiler._stmt_ThrowStatement,
    ast.TryStatement: Compiler._stmt_TryStatement,
    ast.FunctionDeclaration: Compiler._stmt_FunctionDeclaration,
}

_EXPR = {
    ast.Identifier: Compiler._expr_Identifier,
    ast.ThisExpression: Compiler._expr_ThisExpression,
    ast.ArrayLiteral: Compiler._expr_ArrayLiteral,
    ast.ObjectLiteral: Compiler._expr_ObjectLiteral,
    ast.FunctionExpression: Compiler._expr_FunctionExpression,
    ast.UnaryOp: Compiler._expr_UnaryOp,
    ast.UpdateExpression: Compiler._expr_UpdateExpression,
    ast.BinaryOp: Compiler._expr_BinaryOp,
    ast.LogicalOp: Compiler._expr_LogicalOp,
    ast.Conditional: Compiler._expr_Conditional,
    ast.Assignment: Compiler._expr_Assignment,
    ast.Member: Compiler._expr_Member,
    ast.Call: Compiler._expr_Call,
    ast.New: Compiler._expr_New,
    # Literal nodes normally fold; they can still surface here via the
    # statement-position fallback, so route them through folding-free CONSTs.
    ast.NumberLiteral: lambda c, n: c.emit(OP_CONST, n.value),  # noqa: F821
    ast.StringLiteral: lambda c, n: c.emit(OP_CONST, n.value),  # noqa: F821
    ast.BooleanLiteral: lambda c, n: c.emit(OP_CONST, n.value),  # noqa: F821
    ast.NullLiteral: lambda c, n: c.emit(OP_CONST, None),  # noqa: F821
    ast.UndefinedLiteral: lambda c, n: c.emit(OP_CONST, UNDEFINED),  # noqa: F821
}


# -- entry points --------------------------------------------------------------


def compile_function_code(name, params, body) -> CodeObject:
    layout = _function_layout(params, body)
    if layout is None:
        compiler = Compiler("function")
        hoisted = tuple(
            (s.name, compiler._function_meta(s, named=False))
            for s in body
            if isinstance(s, ast.FunctionDeclaration)
        )
    else:
        slot_names, slot_map, param_slots = layout
        compiler = Compiler(
            "function",
            slot_map=slot_map,
            slot_names=slot_names,
            param_slots=param_slots,
        )
        # Slot mode implies no nested functions, hence nothing to hoist.
        hoisted = ()
    for statement in body:
        compiler.stmt(statement)
    compiler.flush()
    return compiler.finish(name or "<anonymous>", hoisted=hoisted)


def compile_ast(program: ast.Program) -> CodeObject:
    """Compile a (typically frozen) Program AST to a CodeObject."""
    compiler = Compiler("program")
    hoisted = tuple(
        (s.name, compiler._function_meta(s, named=False))
        for s in program.body
        if isinstance(s, ast.FunctionDeclaration)
    )
    for statement in program.body:
        compiler.stmt(statement, toplevel=True)
    compiler.flush()
    return compiler.finish("<program>", hoisted=hoisted)


# Hash-addressed compile cache: sha256(source) -> CodeObject, so a warm render
# skips parse and compile.  The AST is frozen before compiling because
# CodeObjects keep its function parameter lists and bodies (FunctionMeta), and
# neither CodeObjects nor those operands are mutated at run time, so
# cross-thread and cross-interpreter sharing is safe.
_BYTECODE_CACHE = LruCache("adscript_bytecode", capacity=4096)


def compile_source(source: str) -> CodeObject:
    """Compile ``source`` via the process-wide cache.

    Parse errors are not cached: an invalid script re-raises identically on
    every call.
    """
    key = hashlib.sha256(source.encode("utf-8", "backslashreplace")).digest()
    code = _BYTECODE_CACHE.get(key)
    if code is None:
        code = compile_ast(ast.freeze(parse_program(source)))
        _BYTECODE_CACHE.put(key, code)
    return code


# -- disassembler --------------------------------------------------------------


def _format_operand(arg: Any) -> str:
    if arg is None:
        return ""
    if arg is UNDEFINED:
        return "undefined"
    return repr(arg)


def disassemble(code: CodeObject) -> str:
    """Human-readable listing of ``code`` and every function it contains."""
    out: list = []
    seen: set = set()
    queue = [code]
    while queue:
        current = queue.pop(0)
        if id(current) in seen:
            continue
        seen.add(id(current))
        slots = "-" if current.slot_names is None else ",".join(current.slot_names)
        out.append(f"== {current.kind} {current.name} (slots: {slots})")
        for i, op in enumerate(current.ops):
            arg = current.args[i]
            out.append(
                f"{i:5d}  {OP_NAMES[op]:<20} {_format_operand(arg):<32}"
                f" cost={current.costs[i]} line={current.lines[i]}"
            )
            if isinstance(arg, FunctionMeta):
                queue.append(arg.code)
            elif isinstance(arg, tuple):
                for item in arg:
                    if isinstance(item, FunctionMeta):
                        queue.append(item.code)
        for _, meta in current.hoisted:
            queue.append(meta.code)
        out.append("")
    return "\n".join(out)


# The VM reads the opcode table above at import time; importing it here (after
# the table and the compile cache exist) keeps interpreter -> bytecode -> vm a
# well-ordered chain from whichever module is imported first.
from repro.adscript import vm as _vm  # noqa: E402,F401
