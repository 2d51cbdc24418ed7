"""AdScript bytecode VM: a flat, stack-based dispatch loop.

Executes :class:`~repro.adscript.bytecode.CodeObject` instruction streams with
observable semantics bit-for-bit identical to the tree-walking interpreter:
identical results, error messages, HostObject property traffic order, and
step-budget accounting (instruction ``cost`` fields are charged *before* the
operation, mirroring the tree-walker's tick-before-work discipline).

Control flow is structured, not exception-driven, on the common paths:

* loops and switches push entries on a per-frame *block stack*
  (SETUP_LOOP/SETUP_SWITCH/POP_BLOCK); ``break``/``continue`` compile to
  plain jumps when their target loop is in the same code segment;
* Python exceptions (`_Break`/`_Continue`/`_Return`) are raised only when
  control must cross a segment boundary — out of a ``try`` segment (so the
  Python ``finally`` runs), out of an ``eval`` call, or out of a function —
  and the block stack tells the owning dispatch loop where to resume;
* ``try`` compiles to EXEC_TRY, which runs its try/catch/finally segments
  through nested dispatch calls inside a literal Python try/except/finally
  that clones the tree-walker's handler (including its quirk of swallowing
  throws even without a catch block).
"""

from __future__ import annotations

from typing import Any

from repro.adscript import bytecode as _bc
from repro.adscript.errors import (
    BudgetExceededError,
    ScriptRuntimeError,
    ThrowSignal,
)
from repro.adscript.interpreter import (
    Environment,
    _Break,
    _Continue,
    _Return,
    binary_op,
    get_member,
    set_member,
    to_int32,
)
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

# Slot value for a local whose ``var`` has not executed yet: reads fall back
# to the environment chain, exactly like the tree-walker's name lookup.
_UNBOUND = object()

# Sentinel distinguishing "ran off the end" from an explicit RETURN_VALUE.
_NO_RETURN = object()

_ALL_OPS = tuple(getattr(_bc, "OP_" + name) for name in _bc.OP_NAMES)


def hotpath_stats() -> dict:
    """Always empty; kept only because ``perfbench/workloads.py`` imports it."""
    return {}


class Frame:
    """Execution state for one program or function activation."""

    __slots__ = ("stack", "env", "slots", "blocks", "result")

    def __init__(self, env: Environment) -> None:
        self.stack: list = []
        self.env = env
        self.slots = None
        self.blocks: list = []  # (is_loop, break_pc, continue_pc, sp, depth)
        self.result: Any = UNDEFINED


def _charge(interp, n: int) -> None:
    steps = interp.steps + n
    interp.steps = steps
    if steps > interp.step_budget:
        raise BudgetExceededError(f"exceeded {interp.step_budget} execution steps")


def _make_function(meta, env: Environment) -> JSFunction:
    fn = JSFunction(meta.name, meta.params, meta.body, env, meta.code)
    if meta.named:
        # Named function expressions can refer to themselves.
        fn_env = Environment(env)
        fn_env.declare(meta.name, fn)
        fn.closure = fn_env
    return fn


def run_code(interp, code, env: Environment) -> Any:
    """Execute a program-kind CodeObject in ``env``; returns the value of the
    last top-level expression statement (the tree-walker's contract)."""
    frame = Frame(env)
    for name, meta in code.hoisted:
        env.declare(name, _make_function(meta, env))
    run_range(interp, frame, code, 0, len(code.ops), 0)
    return frame.result


def call_value(interp, fn: Any, args: list, this: Any = UNDEFINED) -> Any:
    """Host-facing call entry point (``Interpreter.call_function``)."""
    _charge(interp, 1)  # the tree-walker's _call tick
    return _invoke(interp, fn, args, this)


def _invoke(interp, fn: Any, args: list, this: Any) -> Any:
    if isinstance(fn, NativeFunction):
        return fn.fn(*args)
    if isinstance(fn, HostObject) and callable(fn):
        return fn(*args)  # callable host constructors (e.g. Date)
    if not isinstance(fn, JSFunction):
        raise ScriptRuntimeError(f"{to_js_string(fn)} is not a function")
    return _call_compiled(interp, fn, args, this)


def _call_compiled(interp, fn: JSFunction, args: list, this: Any) -> Any:
    code = fn.code
    env = Environment(fn.closure)
    frame = Frame(env)
    nargs = len(args)
    if code.slot_names is not None:
        slots = [_UNBOUND] * len(code.slot_names)
        slots[0] = this
        slots[1] = JSArray(list(args))
        for i, slot in enumerate(code.param_slots):
            slots[slot] = args[i] if i < nargs else UNDEFINED
        frame.slots = slots
    else:
        env.declare("this", this)
        env.declare("arguments", JSArray(list(args)))
        for i, param in enumerate(fn.params):
            env.declare(param, args[i] if i < nargs else UNDEFINED)
        for name, meta in code.hoisted:
            env.declare(name, _make_function(meta, env))
    try:
        result = run_range(interp, frame, code, 0, len(code.ops), 0)
    except _Return as ret:
        return ret.value
    except (_Break, _Continue) as exc:
        raise ScriptRuntimeError(
            f"illegal {type(exc).__name__.lstrip('_').lower()} statement"
        ) from exc
    return result if result is not _NO_RETURN else UNDEFINED


def run_range(interp, frame: Frame, code, pc: int, end: int, depth: int) -> Any:
    """Dispatch instructions in ``[pc, end)``.

    ``depth`` identifies this dispatch invocation: block-stack entries it
    pushed carry it, so `_Break`/`_Continue` raised by deeper segments (or by
    ``eval``'d code) resume at the right loop of the right invocation, and
    anything targeting a shallower invocation propagates.
    """
    # One tuple unpack binds every opcode as a local for the hot loop.
    (
        NOP, POP, DUP, CONST,
        LOAD_NAME, LOAD_NAME_SOFT, STORE_NAME, DECLARE_NAME, TYPEOF_NAME,
        LOAD_LOCAL, LOAD_LOCAL_SOFT, STORE_LOCAL, DECLARE_LOCAL, TYPEOF_LOCAL,
        THIS_SLOT, THIS_DYN,
        UNARY_NOT, UNARY_NEG, UNARY_PLUS, UNARY_BNOT, TYPEOF_VALUE,
        BINARY, BIN_ADD, BIN_SUB, BIN_MUL, BIN_LT, BIN_LE, BIN_GT, BIN_GE,
        BIN_SEQ,
        INCDEC,
        JUMP, JUMP_IF_FALSE, JUMP_IF_TRUE, JUMP_IF_FALSY_KEEP,
        JUMP_IF_TRUTHY_KEEP, JUMP_IF_CASE,
        GET_MEMBER, GET_MEMBER_DYN, SET_MEMBER, SET_MEMBER_DYN,
        DELETE_MEMBER, DELETE_MEMBER_DYN,
        GET_METHOD, GET_METHOD_DYN, CALL_FUNCTION, CALL_METHOD, NEW,
        BUILD_ARRAY, BUILD_OBJECT, MAKE_FUNCTION,
        SET_RESULT, RETURN_VALUE, RAISE_RETURN, RAISE_BREAK, RAISE_CONTINUE,
        RAISE_ERROR, THROW,
        SETUP_LOOP, SETUP_SWITCH, POP_BLOCK,
        FORIN_PREP, FORIN_DECLARE, FORIN_NEXT,
        EXEC_TRY,
    ) = _ALL_OPS
    ops = code.ops
    argv = code.args
    costs = code.costs
    stack = frame.stack
    blocks = frame.blocks
    env = frame.env  # catch segments get their own dispatch call, so this
    slots = frame.slots  # stays valid for the whole invocation
    slot_names = code.slot_names
    while True:
        try:
            while pc < end:
                op = ops[pc]
                arg = argv[pc]
                cost = costs[pc]
                pc += 1
                if cost:
                    steps = interp.steps + cost
                    interp.steps = steps
                    if steps > interp.step_budget:
                        raise BudgetExceededError(
                            f"exceeded {interp.step_budget} execution steps"
                        )
                if op == CONST:
                    stack.append(arg)
                elif op == LOAD_LOCAL:
                    value = slots[arg]
                    if value is _UNBOUND:
                        value = env.lookup(slot_names[arg])
                    stack.append(value)
                elif op == LOAD_NAME:
                    stack.append(env.lookup(arg))
                elif op == BIN_ADD:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left + right
                    else:
                        stack[-1] = binary_op("+", left, right)
                elif op == BIN_LT:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left < right
                    else:
                        stack[-1] = binary_op("<", left, right)
                elif op == JUMP:
                    pc = arg
                elif op == JUMP_IF_FALSE:
                    if not js_truthy(stack.pop()):
                        pc = arg
                elif op == STORE_LOCAL:
                    if slots[arg] is _UNBOUND:
                        env.assign(slot_names[arg], stack.pop())
                    else:
                        slots[arg] = stack.pop()
                elif op == STORE_NAME:
                    env.assign(arg, stack.pop())
                elif op == GET_MEMBER:
                    obj = stack[-1]
                    if isinstance(obj, HostObject):
                        stack[-1] = obj.get_member(arg)
                    else:
                        stack[-1] = get_member(interp, obj, arg)
                elif op == CALL_METHOD:
                    if arg:
                        call_args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        call_args = []
                    fn = stack.pop()
                    this = stack.pop()
                    stack.append(_invoke(interp, fn, call_args, this))
                elif op == CALL_FUNCTION:
                    if arg:
                        call_args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        call_args = []
                    fn = stack.pop()
                    stack.append(_invoke(interp, fn, call_args, UNDEFINED))
                elif op == POP:
                    stack.pop()
                elif op == DUP:
                    stack.append(stack[-1])
                elif op == INCDEC:
                    delta, prefix = arg
                    old = to_js_number(stack.pop())
                    new = old + delta
                    stack.append(new if prefix else old)
                    stack.append(new)
                elif op == BIN_SUB:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left - right
                    else:
                        stack[-1] = binary_op("-", left, right)
                elif op == BIN_MUL:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left * right
                    else:
                        stack[-1] = binary_op("*", left, right)
                elif op == BIN_LE:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left <= right
                    else:
                        stack[-1] = binary_op("<=", left, right)
                elif op == BIN_GT:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left > right
                    else:
                        stack[-1] = binary_op(">", left, right)
                elif op == BIN_GE:
                    right = stack.pop()
                    left = stack[-1]
                    if type(left) is float and type(right) is float:
                        stack[-1] = left >= right
                    else:
                        stack[-1] = binary_op(">=", left, right)
                elif op == BIN_SEQ:
                    right = stack.pop()
                    stack[-1] = js_strict_equals(stack[-1], right)
                elif op == BINARY:
                    right = stack.pop()
                    stack[-1] = binary_op(arg, stack[-1], right)
                elif op == LOAD_LOCAL_SOFT:
                    value = slots[arg]
                    if value is _UNBOUND:
                        name = slot_names[arg]
                        value = env.lookup(name) if env.has(name) else UNDEFINED
                    stack.append(value)
                elif op == LOAD_NAME_SOFT:
                    stack.append(env.lookup(arg) if env.has(arg) else UNDEFINED)
                elif op == DECLARE_LOCAL:
                    slots[arg] = stack.pop()
                elif op == DECLARE_NAME:
                    env.declare(arg, stack.pop())
                elif op == TYPEOF_LOCAL:
                    value = slots[arg]
                    if value is not _UNBOUND:
                        _charge(interp, 1)
                        stack.append(js_typeof(value))
                    else:
                        name = slot_names[arg]
                        if env.has(name):
                            _charge(interp, 1)
                            stack.append(js_typeof(env.lookup(name)))
                        else:
                            stack.append("undefined")
                elif op == TYPEOF_NAME:
                    if env.has(arg):
                        _charge(interp, 1)
                        stack.append(js_typeof(env.lookup(arg)))
                    else:
                        stack.append("undefined")
                elif op == THIS_SLOT:
                    stack.append(slots[arg])
                elif op == THIS_DYN:
                    if env.has("this"):
                        stack.append(env.lookup("this"))
                    elif interp.globals.has("window"):
                        stack.append(interp.globals.lookup("window"))
                    else:
                        stack.append(UNDEFINED)
                elif op == UNARY_NOT:
                    stack[-1] = not js_truthy(stack[-1])
                elif op == UNARY_NEG:
                    stack[-1] = -to_js_number(stack[-1])
                elif op == UNARY_PLUS:
                    stack[-1] = to_js_number(stack[-1])
                elif op == UNARY_BNOT:
                    stack[-1] = float(~to_int32(stack[-1]))
                elif op == TYPEOF_VALUE:
                    stack[-1] = js_typeof(stack[-1])
                elif op == JUMP_IF_TRUE:
                    if js_truthy(stack.pop()):
                        pc = arg
                elif op == JUMP_IF_FALSY_KEEP:
                    if js_truthy(stack[-1]):
                        stack.pop()
                    else:
                        pc = arg
                elif op == JUMP_IF_TRUTHY_KEEP:
                    if js_truthy(stack[-1]):
                        pc = arg
                    else:
                        stack.pop()
                elif op == JUMP_IF_CASE:
                    test = stack.pop()
                    if js_strict_equals(stack[-1], test):
                        stack.pop()
                        pc = arg
                elif op == GET_MEMBER_DYN:
                    prop = stack.pop()
                    stack[-1] = get_member(interp, stack[-1], to_js_string(prop))
                elif op == SET_MEMBER:
                    obj = stack.pop()
                    set_member(obj, arg, stack.pop())
                elif op == SET_MEMBER_DYN:
                    prop = stack.pop()
                    obj = stack.pop()
                    set_member(obj, to_js_string(prop), stack.pop())
                elif op == DELETE_MEMBER:
                    obj = stack.pop()
                    stack.append(
                        obj.delete(arg) if isinstance(obj, JSObject) else True
                    )
                elif op == DELETE_MEMBER_DYN:
                    prop = to_js_string(stack.pop())
                    obj = stack.pop()
                    stack.append(
                        obj.delete(prop) if isinstance(obj, JSObject) else True
                    )
                elif op == GET_METHOD:
                    this = stack[-1]
                    if isinstance(this, HostObject):
                        fn = this.get_member(arg)
                    else:
                        fn = get_member(interp, this, arg)
                    if fn is UNDEFINED:
                        raise ScriptRuntimeError(
                            f"{to_js_string(this)}.{arg} is not a function"
                        )
                    stack.append(fn)
                elif op == GET_METHOD_DYN:
                    prop = to_js_string(stack.pop())
                    this = stack[-1]
                    fn = get_member(interp, this, prop)
                    if fn is UNDEFINED:
                        raise ScriptRuntimeError(
                            f"{to_js_string(this)}.{prop} is not a function"
                        )
                    stack.append(fn)
                elif op == NEW:
                    if arg:
                        call_args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        call_args = []
                    fn = stack.pop()
                    if isinstance(fn, NativeFunction):
                        stack.append(fn.fn(*call_args))
                    elif isinstance(fn, HostObject) and callable(fn):
                        stack.append(fn(*call_args))
                    elif isinstance(fn, JSFunction):
                        instance = JSObject()
                        _charge(interp, 1)  # the JSFunction branch's _call tick
                        _call_compiled(interp, fn, call_args, instance)
                        stack.append(instance)
                    else:
                        raise ScriptRuntimeError(
                            f"{to_js_string(fn)} is not a constructor"
                        )
                elif op == BUILD_ARRAY:
                    if arg:
                        elements = stack[-arg:]
                        del stack[-arg:]
                    else:
                        elements = []
                    stack.append(JSArray(elements))
                elif op == BUILD_OBJECT:
                    n = len(arg)
                    if n:
                        values = stack[-n:]
                        del stack[-n:]
                    else:
                        values = []
                    obj = JSObject()
                    for key, value in zip(arg, values):
                        obj.set(key, value)
                    stack.append(obj)
                elif op == MAKE_FUNCTION:
                    stack.append(_make_function(arg, env))
                elif op == SET_RESULT:
                    frame.result = stack.pop()
                elif op == RETURN_VALUE:
                    return stack.pop()
                elif op == RAISE_RETURN:
                    raise _Return(stack.pop())
                elif op == RAISE_BREAK:
                    raise _Break()
                elif op == RAISE_CONTINUE:
                    raise _Continue()
                elif op == RAISE_ERROR:
                    raise ScriptRuntimeError(arg)
                elif op == THROW:
                    raise ThrowSignal(stack.pop())
                elif op == SETUP_LOOP:
                    blocks.append((True, arg[0], arg[1], len(stack), depth))
                elif op == SETUP_SWITCH:
                    # sp excludes the discriminant sitting on the stack: a
                    # runtime break must discard it along with any partials.
                    blocks.append((False, arg, None, len(stack) - 1, depth))
                elif op == POP_BLOCK:
                    blocks.pop()
                elif op == FORIN_PREP:
                    obj = stack.pop()
                    if isinstance(obj, JSArray):
                        keys = [
                            format_number(float(i))
                            for i in range(len(obj.elements))
                        ]
                    elif isinstance(obj, JSObject):
                        keys = obj.keys()
                    elif isinstance(obj, HostObject):
                        keys = obj.member_names()
                    elif isinstance(obj, str):
                        keys = [format_number(float(i)) for i in range(len(obj))]
                    else:
                        keys = []
                    stack.append([keys, 0])
                elif op == FORIN_DECLARE:
                    slot, name = arg
                    if slot is not None:
                        if slots[slot] is _UNBOUND and not env.has(name):
                            slots[slot] = UNDEFINED
                    elif not env.has(name):
                        env.declare(name)
                elif op == FORIN_NEXT:
                    exit_pc, spec = arg
                    state = stack[-1]
                    keys = state[0]
                    index = state[1]
                    if index < len(keys):
                        state[1] = index + 1
                        key = keys[index]
                        slot, name = spec
                        if slot is not None and slots[slot] is not _UNBOUND:
                            slots[slot] = key
                        else:
                            env.assign(name, key)
                    else:
                        pc = exit_pc
                elif op == EXEC_TRY:
                    t0, t1, catch_param, c0, c1, f0, f1 = arg
                    sp = len(stack)
                    nblocks = len(blocks)
                    try:
                        try:
                            run_range(interp, frame, code, t0, t1, depth + 1)
                        except ThrowSignal as signal:
                            del stack[sp:]
                            del blocks[nblocks:]
                            if c0 is not None:
                                prev_env = frame.env
                                catch_env = Environment(prev_env)
                                catch_env.declare(catch_param, signal.value)
                                frame.env = catch_env
                                try:
                                    run_range(
                                        interp, frame, code, c0, c1, depth + 1
                                    )
                                finally:
                                    frame.env = prev_env
                        except ScriptRuntimeError as exc:
                            del stack[sp:]
                            del blocks[nblocks:]
                            if c0 is not None:
                                prev_env = frame.env
                                catch_env = Environment(prev_env)
                                catch_env.declare(
                                    catch_param,
                                    JSObject(
                                        {"message": str(exc), "name": "Error"}
                                    ),
                                )
                                frame.env = catch_env
                                try:
                                    run_range(
                                        interp, frame, code, c0, c1, depth + 1
                                    )
                                finally:
                                    frame.env = prev_env
                    finally:
                        del stack[sp:]
                        del blocks[nblocks:]
                        if f0 is not None:
                            run_range(interp, frame, code, f0, f1, depth + 1)
                elif op == NOP:
                    pass
                else:  # pragma: no cover - compiler/VM opcode set mismatch
                    raise ScriptRuntimeError(f"unknown opcode {op}")
            return _NO_RETURN
        except _Break:
            if blocks and blocks[-1][4] == depth:
                _, break_pc, _, sp, _ = blocks.pop()
                del stack[sp:]
                pc = break_pc
                continue
            raise
        except _Continue:
            resumed = False
            while blocks and blocks[-1][4] == depth:
                is_loop, _, continue_pc, sp, _ = blocks[-1]
                if is_loop:
                    del stack[sp:]
                    pc = continue_pc
                    resumed = True
                    break
                blocks.pop()  # continue abandons enclosing switches
            if resumed:
                continue
            raise
