"""AdScript reference semantics: the tree-walking interpreter.

Production runs every script on the bytecode VM (:mod:`repro.adscript.vm`).
:class:`TreeInterpreter` walks the parsed AST directly instead.  It is the
reference the VM is held to: the differential tests and the
engine-throughput benchmark run both and demand bit-identical results,
side effects and step counts (DESIGN §13).  Nothing in the render path
constructs it.

It parses with :func:`~repro.adscript.parser.parse_program` on every run and
caches nothing; it shares the global environment, builtins and value
semantics of :class:`~repro.adscript.interpreter.Interpreter`.
"""

from __future__ import annotations

from typing import Any

from repro.adscript import ast_nodes as ast
from repro.adscript.errors import (
    BudgetExceededError,
    ScriptRuntimeError,
    ThrowSignal,
)
from repro.adscript.interpreter import (
    Environment,
    Interpreter,
    _Break,
    _Continue,
    _Return,
    binary_op,
    get_member,
    set_member,
    to_int32,
)
from repro.adscript.parser import parse_program
from repro.adscript.values import (
    HostObject,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    format_number,
    js_strict_equals,
    js_truthy,
    js_typeof,
    to_js_number,
    to_js_string,
)


class TreeInterpreter(Interpreter):
    """Evaluates AdScript by walking the AST; one step per node visited."""

    def eval_source(self, source: str) -> Any:
        program = parse_program(source)
        self._hoist(program.body, self.globals)
        result: Any = UNDEFINED
        for statement in program.body:
            value = self.execute(statement, self.globals)
            if isinstance(statement, ast.ExpressionStatement):
                result = value
        return result

    def call_function(self, fn: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        return self._call(fn, args, this)

    # -- statements --------------------------------------------------------------

    def execute(self, node: ast.Node, env: Environment) -> Any:
        self._tick()
        method = getattr(self, f"_exec_{type(node).__name__}", None)
        if method is None:
            return self.evaluate(node, env)
        return method(node, env)

    def _exec_ExpressionStatement(self, node: ast.ExpressionStatement, env: Environment) -> Any:
        return self.evaluate(node.expression, env)

    def _exec_EmptyStatement(self, node: ast.EmptyStatement, env: Environment) -> Any:
        return UNDEFINED

    def _exec_VarDeclaration(self, node: ast.VarDeclaration, env: Environment) -> Any:
        for name, init in node.declarations:
            value = self.evaluate(init, env) if init is not None else UNDEFINED
            env.declare(name, value)
        return UNDEFINED

    def _exec_Block(self, node: ast.Block, env: Environment) -> Any:
        # 'var' has function scope in JS, so blocks share the enclosing scope.
        for statement in node.body:
            self.execute(statement, env)
        return UNDEFINED

    def _exec_IfStatement(self, node: ast.IfStatement, env: Environment) -> Any:
        if js_truthy(self.evaluate(node.test, env)):
            self.execute(node.consequent, env)
        elif node.alternate is not None:
            self.execute(node.alternate, env)
        return UNDEFINED

    def _exec_WhileStatement(self, node: ast.WhileStatement, env: Environment) -> Any:
        while js_truthy(self.evaluate(node.test, env)):
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_DoWhileStatement(self, node: ast.DoWhileStatement, env: Environment) -> Any:
        while True:
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if not js_truthy(self.evaluate(node.test, env)):
                break
        return UNDEFINED

    def _exec_SwitchStatement(self, node: ast.SwitchStatement, env: Environment) -> Any:
        value = self.evaluate(node.discriminant, env)
        matched = False
        try:
            # First pass: 'case' clauses, with fallthrough once matched.
            for case in node.cases:
                if not matched and case.test is not None:
                    matched = js_strict_equals(value, self.evaluate(case.test, env))
                if matched:
                    for statement in case.body:
                        self.execute(statement, env)
            if not matched:
                # Second pass: run from 'default:' onward (with fallthrough).
                from_default = False
                for case in node.cases:
                    if case.test is None:
                        from_default = True
                    if from_default:
                        for statement in case.body:
                            self.execute(statement, env)
        except _Break:
            pass
        return UNDEFINED

    def _exec_ForStatement(self, node: ast.ForStatement, env: Environment) -> Any:
        if node.init is not None:
            self.execute(node.init, env)
        while node.test is None or js_truthy(self.evaluate(node.test, env)):
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self.evaluate(node.update, env)
        return UNDEFINED

    def _exec_ForInStatement(self, node: ast.ForInStatement, env: Environment) -> Any:
        obj = self.evaluate(node.obj, env)
        if isinstance(obj, JSArray):
            keys = [format_number(float(i)) for i in range(len(obj.elements))]
        elif isinstance(obj, JSObject):
            keys = obj.keys()
        elif isinstance(obj, HostObject):
            keys = obj.member_names()
        elif isinstance(obj, str):
            keys = [format_number(float(i)) for i in range(len(obj))]
        else:
            keys = []
        if not env.has(node.var_name):
            env.declare(node.var_name)
        for key in keys:
            env.assign(node.var_name, key)
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_ReturnStatement(self, node: ast.ReturnStatement, env: Environment) -> Any:
        value = self.evaluate(node.argument, env) if node.argument is not None else UNDEFINED
        raise _Return(value)

    def _exec_BreakStatement(self, node: ast.BreakStatement, env: Environment) -> Any:
        raise _Break()

    def _exec_ContinueStatement(self, node: ast.ContinueStatement, env: Environment) -> Any:
        raise _Continue()

    def _exec_ThrowStatement(self, node: ast.ThrowStatement, env: Environment) -> Any:
        raise ThrowSignal(self.evaluate(node.argument, env))

    def _exec_TryStatement(self, node: ast.TryStatement, env: Environment) -> Any:
        try:
            self.execute(node.block, env)
        except ThrowSignal as signal:
            if node.catch_block is not None:
                catch_env = Environment(env)
                catch_env.declare(node.catch_param or "e", signal.value)
                self.execute(node.catch_block, catch_env)
        except ScriptRuntimeError as exc:
            if node.catch_block is not None:
                catch_env = Environment(env)
                error_obj = JSObject({"message": str(exc), "name": "Error"})
                catch_env.declare(node.catch_param or "e", error_obj)
                self.execute(node.catch_block, catch_env)
        finally:
            if node.finally_block is not None:
                self.execute(node.finally_block, env)
        return UNDEFINED

    def _exec_FunctionDeclaration(self, node: ast.FunctionDeclaration, env: Environment) -> Any:
        # Already hoisted; re-executing is a no-op but keeps semantics simple.
        env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
        return UNDEFINED

    # -- expressions -------------------------------------------------------------

    def evaluate(self, node: ast.Node, env: Environment) -> Any:
        self._tick()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise ScriptRuntimeError(f"cannot evaluate node {type(node).__name__}")
        return method(node, env)

    def _eval_NumberLiteral(self, node: ast.NumberLiteral, env: Environment) -> Any:
        return node.value

    def _eval_StringLiteral(self, node: ast.StringLiteral, env: Environment) -> Any:
        return node.value

    def _eval_BooleanLiteral(self, node: ast.BooleanLiteral, env: Environment) -> Any:
        return node.value

    def _eval_NullLiteral(self, node: ast.NullLiteral, env: Environment) -> Any:
        return None

    def _eval_UndefinedLiteral(self, node: ast.UndefinedLiteral, env: Environment) -> Any:
        return UNDEFINED

    def _eval_ThisExpression(self, node: ast.ThisExpression, env: Environment) -> Any:
        if env.has("this"):
            return env.lookup("this")
        if self.globals.has("window"):
            return self.globals.lookup("window")
        return UNDEFINED

    def _eval_Identifier(self, node: ast.Identifier, env: Environment) -> Any:
        return env.lookup(node.name)

    def _eval_ArrayLiteral(self, node: ast.ArrayLiteral, env: Environment) -> Any:
        return JSArray([self.evaluate(el, env) for el in node.elements])

    def _eval_ObjectLiteral(self, node: ast.ObjectLiteral, env: Environment) -> Any:
        obj = JSObject()
        for key, value_node in node.entries:
            obj.set(key, self.evaluate(value_node, env))
        return obj

    def _eval_FunctionExpression(self, node: ast.FunctionExpression, env: Environment) -> Any:
        fn = JSFunction(node.name, node.params, node.body, env)
        if node.name:
            # Named function expressions can refer to themselves.
            fn_env = Environment(env)
            fn_env.declare(node.name, fn)
            fn.closure = fn_env
        return fn

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Environment) -> Any:
        if node.op == "typeof":
            if isinstance(node.operand, ast.Identifier) and not env.has(node.operand.name):
                return "undefined"
            return js_typeof(self.evaluate(node.operand, env))
        if node.op == "delete":
            if isinstance(node.operand, ast.Member):
                obj = self.evaluate(node.operand.obj, env)
                prop = self._prop_name(node.operand, env)
                if isinstance(obj, JSObject):
                    return obj.delete(prop)
            return True
        value = self.evaluate(node.operand, env)
        if node.op == "!":
            return not js_truthy(value)
        if node.op == "-":
            return -to_js_number(value)
        if node.op == "+":
            return to_js_number(value)
        if node.op == "~":
            return float(~self._to_int32(value))
        raise ScriptRuntimeError(f"unknown unary operator {node.op}")

    def _eval_UpdateExpression(self, node: ast.UpdateExpression, env: Environment) -> Any:
        old = to_js_number(self._read_target(node.target, env))
        new = old + 1 if node.op == "++" else old - 1
        self._write_target(node.target, new, env)
        return new if node.prefix else old

    def _eval_BinaryOp(self, node: ast.BinaryOp, env: Environment) -> Any:
        if node.op == ",":
            self.evaluate(node.left, env)
            return self.evaluate(node.right, env)
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        return self._binary(node.op, left, right)

    def _eval_LogicalOp(self, node: ast.LogicalOp, env: Environment) -> Any:
        left = self.evaluate(node.left, env)
        if node.op == "&&":
            return self.evaluate(node.right, env) if js_truthy(left) else left
        return left if js_truthy(left) else self.evaluate(node.right, env)

    def _eval_Conditional(self, node: ast.Conditional, env: Environment) -> Any:
        if js_truthy(self.evaluate(node.test, env)):
            return self.evaluate(node.consequent, env)
        return self.evaluate(node.alternate, env)

    def _eval_Assignment(self, node: ast.Assignment, env: Environment) -> Any:
        if node.op == "=":
            value = self.evaluate(node.value, env)
        else:
            current = self._read_target(node.target, env)
            operand = self.evaluate(node.value, env)
            value = self._binary(node.op[:-1], current, operand)
        self._write_target(node.target, value, env)
        return value

    def _eval_Member(self, node: ast.Member, env: Environment) -> Any:
        obj = self.evaluate(node.obj, env)
        prop = self._prop_name(node, env)
        return self._get_member(obj, prop)

    def _eval_Call(self, node: ast.Call, env: Environment) -> Any:
        if isinstance(node.callee, ast.Member):
            this = self.evaluate(node.callee.obj, env)
            prop = self._prop_name(node.callee, env)
            fn = self._get_member(this, prop)
            if fn is UNDEFINED:
                raise ScriptRuntimeError(
                    f"{to_js_string(this)}.{prop} is not a function"
                )
        else:
            this = UNDEFINED
            fn = self.evaluate(node.callee, env)
        args = [self.evaluate(arg, env) for arg in node.args]
        return self._call(fn, args, this)

    def _eval_New(self, node: ast.New, env: Environment) -> Any:
        fn = self.evaluate(node.callee, env)
        args = [self.evaluate(arg, env) for arg in node.args]
        if isinstance(fn, NativeFunction):
            return fn.fn(*args)
        if isinstance(fn, HostObject) and callable(fn):
            return fn(*args)
        if isinstance(fn, JSFunction):
            instance = JSObject()
            self._call(fn, args, instance)
            return instance
        raise ScriptRuntimeError(f"{to_js_string(fn)} is not a constructor")

    # -- helpers -----------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise BudgetExceededError(f"exceeded {self.step_budget} execution steps")

    def _hoist(self, body: list[ast.Node], env: Environment) -> None:
        """Hoist function declarations so mutual recursion works."""
        for statement in body:
            if isinstance(statement, ast.FunctionDeclaration):
                env.declare(
                    statement.name,
                    JSFunction(statement.name, statement.params, statement.body, env),
                )

    def _prop_name(self, node: ast.Member, env: Environment) -> str:
        if node.computed:
            return to_js_string(self.evaluate(node.prop, env))
        assert isinstance(node.prop, ast.StringLiteral)
        return node.prop.value

    def _read_target(self, target: ast.Node, env: Environment) -> Any:
        if isinstance(target, ast.Identifier):
            return env.lookup(target.name) if env.has(target.name) else UNDEFINED
        if isinstance(target, ast.Member):
            obj = self.evaluate(target.obj, env)
            return self._get_member(obj, self._prop_name(target, env))
        raise ScriptRuntimeError("invalid assignment target")

    def _write_target(self, target: ast.Node, value: Any, env: Environment) -> None:
        if isinstance(target, ast.Identifier):
            env.assign(target.name, value)
            return
        if isinstance(target, ast.Member):
            obj = self.evaluate(target.obj, env)
            prop = self._prop_name(target, env)
            self._set_member(obj, prop, value)
            return
        raise ScriptRuntimeError("invalid assignment target")

    def _get_member(self, obj: Any, prop: str) -> Any:
        return get_member(self, obj, prop)

    def _set_member(self, obj: Any, prop: str, value: Any) -> None:
        set_member(obj, prop, value)

    def _call(self, fn: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        self._tick()
        if isinstance(fn, NativeFunction):
            return fn.fn(*args)
        if isinstance(fn, HostObject) and callable(fn):
            return fn(*args)  # callable host constructors (e.g. Date)
        if not isinstance(fn, JSFunction):
            raise ScriptRuntimeError(f"{to_js_string(fn)} is not a function")
        env = Environment(fn.closure)
        env.declare("this", this)
        env.declare("arguments", JSArray(list(args)))
        for i, param in enumerate(fn.params):
            env.declare(param, args[i] if i < len(args) else UNDEFINED)
        self._hoist(fn.body, env)
        try:
            for statement in fn.body:
                self.execute(statement, env)
        except _Return as ret:
            return ret.value
        except (_Break, _Continue) as exc:
            raise ScriptRuntimeError(
                f"illegal {type(exc).__name__.lstrip('_').lower()} statement"
            ) from exc
        return UNDEFINED

    def _to_int32(self, value: Any) -> int:
        return to_int32(value)

    def _binary(self, op: str, left: Any, right: Any) -> Any:
        return binary_op(op, left, right)

