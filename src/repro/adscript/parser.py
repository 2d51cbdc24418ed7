"""AdScript recursive-descent parser."""

from __future__ import annotations

from typing import Optional

from repro.adscript import ast_nodes as ast
from repro.adscript.errors import ParseError
from repro.adscript.lexer import Token, tokenize

# Binary operator precedence (higher binds tighter).
PRECEDENCE = {
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})


class Parser:
    """Parses a token stream into a :class:`repro.adscript.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token utilities -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            raise ParseError(f"expected {op!r}, found {self.current.value!r}", self.current.line)
        return self.advance()

    def expect_name(self) -> Token:
        if self.current.kind != "name":
            raise ParseError(f"expected identifier, found {self.current.value!r}", self.current.line)
        return self.advance()

    def _eat_semicolon(self) -> None:
        if self.current.is_op(";"):
            self.advance()

    # -- program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        body: list[ast.Node] = []
        while self.current.kind != "eof":
            body.append(self.parse_statement())
        return ast.Program(body)

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> ast.Node:
        token = self.current
        if token.is_op("{"):
            return self.parse_block()
        if token.is_op(";"):
            self.advance()
            return ast.EmptyStatement(token.line)
        if token.kind == "keyword":
            handler = {
                "var": self._parse_var,
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do_while,
                "for": self._parse_for,
                "switch": self._parse_switch,
                "function": self._parse_function_declaration,
                "return": self._parse_return,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "throw": self._parse_throw,
                "try": self._parse_try,
            }.get(token.value)
            if handler is not None:
                return handler()
        expression = self.parse_expression()
        self._eat_semicolon()
        return ast.ExpressionStatement(expression, token.line)

    def parse_block(self) -> ast.Block:
        line = self.expect_op("{").line
        body: list[ast.Node] = []
        while not self.current.is_op("}"):
            if self.current.kind == "eof":
                raise ParseError("unterminated block", line)
            body.append(self.parse_statement())
        self.advance()
        return ast.Block(body, line)

    def _parse_var(self) -> ast.VarDeclaration:
        line = self.advance().line  # 'var'
        declarations: list[tuple[str, Optional[ast.Node]]] = []
        while True:
            name = self.expect_name().value
            init: Optional[ast.Node] = None
            if self.current.is_op("="):
                self.advance()
                init = self.parse_assignment()
            declarations.append((name, init))
            if self.current.is_op(","):
                self.advance()
                continue
            break
        self._eat_semicolon()
        return ast.VarDeclaration(declarations, line)

    def _parse_if(self) -> ast.IfStatement:
        line = self.advance().line
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        consequent = self.parse_statement()
        alternate: Optional[ast.Node] = None
        if self.current.is_keyword("else"):
            self.advance()
            alternate = self.parse_statement()
        return ast.IfStatement(test, consequent, alternate, line)

    def _parse_while(self) -> ast.WhileStatement:
        line = self.advance().line
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        return ast.WhileStatement(test, self.parse_statement(), line)

    def _parse_do_while(self) -> ast.DoWhileStatement:
        line = self.advance().line  # 'do'
        body = self.parse_statement()
        if not self.current.is_keyword("while"):
            raise ParseError("expected 'while' after do-block", self.current.line)
        self.advance()
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        self._eat_semicolon()
        return ast.DoWhileStatement(body, test, line)

    def _parse_switch(self) -> ast.SwitchStatement:
        line = self.advance().line  # 'switch'
        self.expect_op("(")
        discriminant = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        cases: list[ast.SwitchCase] = []
        while not self.current.is_op("}"):
            token = self.current
            if token.is_keyword("case"):
                self.advance()
                test: Optional[ast.Node] = self.parse_expression()
            elif token.is_keyword("default"):
                self.advance()
                test = None
            else:
                raise ParseError("expected 'case' or 'default' in switch",
                                 token.line)
            self.expect_op(":")
            body: list[ast.Node] = []
            while not (self.current.is_op("}")
                       or self.current.is_keyword("case", "default")):
                if self.current.kind == "eof":
                    raise ParseError("unterminated switch", line)
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(test, body, token.line))
        self.advance()  # '}'
        return ast.SwitchStatement(discriminant, cases, line)

    def _parse_for(self) -> ast.Node:
        line = self.advance().line
        self.expect_op("(")
        init: Optional[ast.Node] = None
        if self.current.is_keyword("var"):
            mark = self.pos
            self.advance()
            name_token = self.expect_name()
            if self.current.is_keyword("in"):
                self.advance()
                obj = self.parse_expression()
                self.expect_op(")")
                return ast.ForInStatement(name_token.value, obj, self.parse_statement(), line)
            self.pos = mark
            init = self._parse_var_no_semicolon()
        elif not self.current.is_op(";"):
            init = ast.ExpressionStatement(self.parse_expression(), line)
        self.expect_op(";")
        test = None if self.current.is_op(";") else self.parse_expression()
        self.expect_op(";")
        update = None if self.current.is_op(")") else self.parse_expression()
        self.expect_op(")")
        return ast.ForStatement(init, test, update, self.parse_statement(), line)

    def _parse_var_no_semicolon(self) -> ast.VarDeclaration:
        line = self.advance().line  # 'var'
        declarations: list[tuple[str, Optional[ast.Node]]] = []
        while True:
            name = self.expect_name().value
            init: Optional[ast.Node] = None
            if self.current.is_op("="):
                self.advance()
                init = self.parse_assignment()
            declarations.append((name, init))
            if self.current.is_op(","):
                self.advance()
                continue
            break
        return ast.VarDeclaration(declarations, line)

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        line = self.advance().line  # 'function'
        name = self.expect_name().value
        params = self._parse_params()
        body = self.parse_block().body
        return ast.FunctionDeclaration(name, params, body, line)

    def _parse_params(self) -> list[str]:
        self.expect_op("(")
        params: list[str] = []
        while not self.current.is_op(")"):
            params.append(self.expect_name().value)
            if self.current.is_op(","):
                self.advance()
        self.advance()
        return params

    def _parse_return(self) -> ast.ReturnStatement:
        line = self.advance().line
        argument: Optional[ast.Node] = None
        if not (self.current.is_op(";") or self.current.is_op("}") or self.current.kind == "eof"):
            argument = self.parse_expression()
        self._eat_semicolon()
        return ast.ReturnStatement(argument, line)

    def _parse_break(self) -> ast.BreakStatement:
        line = self.advance().line
        self._eat_semicolon()
        return ast.BreakStatement(line)

    def _parse_continue(self) -> ast.ContinueStatement:
        line = self.advance().line
        self._eat_semicolon()
        return ast.ContinueStatement(line)

    def _parse_throw(self) -> ast.ThrowStatement:
        line = self.advance().line
        argument = self.parse_expression()
        self._eat_semicolon()
        return ast.ThrowStatement(argument, line)

    def _parse_try(self) -> ast.TryStatement:
        line = self.advance().line
        block = self.parse_block()
        catch_param: Optional[str] = None
        catch_block: Optional[ast.Block] = None
        finally_block: Optional[ast.Block] = None
        if self.current.is_keyword("catch"):
            self.advance()
            self.expect_op("(")
            catch_param = self.expect_name().value
            self.expect_op(")")
            catch_block = self.parse_block()
        if self.current.kind == "name" and self.current.value == "finally":
            self.advance()
            finally_block = self.parse_block()
        if catch_block is None and finally_block is None:
            raise ParseError("try without catch or finally", line)
        return ast.TryStatement(block, catch_param, catch_block, finally_block, line)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Node:
        expression = self.parse_assignment()
        while self.current.is_op(","):
            line = self.advance().line
            right = self.parse_assignment()
            expression = ast.BinaryOp(",", expression, right, line)
        return expression

    def parse_assignment(self) -> ast.Node:
        left = self.parse_conditional()
        if self.current.kind == "op" and self.current.value in ASSIGN_OPS:
            op_token = self.advance()
            if not isinstance(left, (ast.Identifier, ast.Member)):
                raise ParseError("invalid assignment target", op_token.line)
            value = self.parse_assignment()
            return ast.Assignment(op_token.value, left, value, op_token.line)
        return left

    def parse_conditional(self) -> ast.Node:
        test = self.parse_logical_or()
        if self.current.is_op("?"):
            line = self.advance().line
            consequent = self.parse_assignment()
            self.expect_op(":")
            alternate = self.parse_assignment()
            return ast.Conditional(test, consequent, alternate, line)
        return test

    def parse_logical_or(self) -> ast.Node:
        left = self.parse_logical_and()
        while self.current.is_op("||"):
            line = self.advance().line
            left = ast.LogicalOp("||", left, self.parse_logical_and(), line)
        return left

    def parse_logical_and(self) -> ast.Node:
        left = self.parse_binary(0)
        while self.current.is_op("&&"):
            line = self.advance().line
            left = ast.LogicalOp("&&", left, self.parse_binary(0), line)
        return left

    def parse_binary(self, min_precedence: int) -> ast.Node:
        left = self.parse_unary()
        while True:
            token = self.current
            op = token.value
            if token.kind == "keyword" and op == "in":
                precedence = PRECEDENCE["in"]
            elif token.kind == "op" and op in PRECEDENCE:
                precedence = PRECEDENCE[op]
            else:
                return left
            if precedence < min_precedence:
                return left
            self.advance()
            right = self.parse_binary(precedence + 1)
            left = ast.BinaryOp(op, left, right, token.line)

    def parse_unary(self) -> ast.Node:
        token = self.current
        if token.is_op("-", "+", "!", "~"):
            self.advance()
            return ast.UnaryOp(token.value, self.parse_unary(), token.line)
        if token.is_keyword("typeof", "delete"):
            self.advance()
            return ast.UnaryOp(token.value, self.parse_unary(), token.line)
        if token.is_op("++", "--"):
            self.advance()
            target = self.parse_unary()
            if not isinstance(target, (ast.Identifier, ast.Member)):
                raise ParseError("invalid increment target", token.line)
            return ast.UpdateExpression(token.value, target, prefix=True, line=token.line)
        if token.is_keyword("new"):
            self.advance()
            callee = self.parse_postfix(allow_call=False)
            args: list[ast.Node] = []
            if self.current.is_op("("):
                args = self._parse_args()
            node: ast.Node = ast.New(callee, args, token.line)
            return self._parse_postfix_tail(node)
        return self.parse_postfix()

    def parse_postfix(self, allow_call: bool = True) -> ast.Node:
        node = self.parse_primary()
        node = self._parse_postfix_tail(node, allow_call=allow_call)
        token = self.current
        if token.is_op("++", "--") and isinstance(node, (ast.Identifier, ast.Member)):
            self.advance()
            return ast.UpdateExpression(token.value, node, prefix=False, line=token.line)
        return node

    def _parse_postfix_tail(self, node: ast.Node, allow_call: bool = True) -> ast.Node:
        while True:
            token = self.current
            if token.is_op("."):
                self.advance()
                prop = self.current
                if prop.kind not in ("name", "keyword"):
                    raise ParseError("expected property name after '.'", token.line)
                self.advance()
                node = ast.Member(node, ast.StringLiteral(prop.value, prop.line), False, token.line)
            elif token.is_op("["):
                self.advance()
                index = self.parse_expression()
                self.expect_op("]")
                node = ast.Member(node, index, True, token.line)
            elif token.is_op("(") and allow_call:
                args = self._parse_args()
                node = ast.Call(node, args, token.line)
            else:
                return node

    def _parse_args(self) -> list[ast.Node]:
        self.expect_op("(")
        args: list[ast.Node] = []
        while not self.current.is_op(")"):
            args.append(self.parse_assignment())
            if self.current.is_op(","):
                self.advance()
        self.advance()
        return args

    def parse_primary(self) -> ast.Node:
        token = self.current
        if token.kind == "num":
            self.advance()
            return ast.NumberLiteral(float(token.value), token.line)
        if token.kind == "str":
            self.advance()
            return ast.StringLiteral(token.value, token.line)
        if token.is_keyword("true"):
            self.advance()
            return ast.BooleanLiteral(True, token.line)
        if token.is_keyword("false"):
            self.advance()
            return ast.BooleanLiteral(False, token.line)
        if token.is_keyword("null"):
            self.advance()
            return ast.NullLiteral(token.line)
        if token.is_keyword("undefined"):
            self.advance()
            return ast.UndefinedLiteral(token.line)
        if token.is_keyword("this"):
            self.advance()
            return ast.ThisExpression(token.line)
        if token.is_keyword("function"):
            return self._parse_function_expression()
        if token.kind == "name":
            self.advance()
            return ast.Identifier(token.value, token.line)
        if token.is_op("("):
            self.advance()
            expression = self.parse_expression()
            self.expect_op(")")
            return expression
        if token.is_op("["):
            return self._parse_array_literal()
        if token.is_op("{"):
            return self._parse_object_literal()
        raise ParseError(f"unexpected token {token.value!r}", token.line)

    def _parse_function_expression(self) -> ast.FunctionExpression:
        line = self.advance().line  # 'function'
        name: Optional[str] = None
        if self.current.kind == "name":
            name = self.advance().value
        params = self._parse_params()
        body = self.parse_block().body
        return ast.FunctionExpression(name, params, body, line)

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        line = self.expect_op("[").line
        elements: list[ast.Node] = []
        while not self.current.is_op("]"):
            elements.append(self.parse_assignment())
            if self.current.is_op(","):
                self.advance()
        self.advance()
        return ast.ArrayLiteral(elements, line)

    def _parse_object_literal(self) -> ast.ObjectLiteral:
        line = self.expect_op("{").line
        entries: list[tuple[str, ast.Node]] = []
        while not self.current.is_op("}"):
            key_token = self.current
            if key_token.kind in ("name", "str", "keyword"):
                key = key_token.value
            elif key_token.kind == "num":
                key = key_token.value
            else:
                raise ParseError("bad object key", key_token.line)
            self.advance()
            self.expect_op(":")
            entries.append((key, self.parse_assignment()))
            if self.current.is_op(","):
                self.advance()
        self.advance()
        return ast.ObjectLiteral(entries, line)


def parse_program(source: str) -> ast.Program:
    """Parse AdScript ``source`` text into a fresh, mutable AST."""
    return Parser(tokenize(source)).parse_program()

