"""Recursive-descent parser for the concrete specification syntax.

Grammar (one declaration per line; ``--`` and ``#`` start comments)::

    spec      := { declaration NEWLINE }
    declaration := "in" NAME ":" type
                 | "def" NAME [":" type] ":=" expr
                 | "out" NAME { "," NAME }
    type      := NAME [ "<" type { "," type } ">" ]
    expr      := or-expr | "if" expr "then" expr "else" expr
    or-expr   := and-expr { "||" and-expr }
    and-expr  := cmp-expr { "&&" cmp-expr }
    cmp-expr  := add-expr [ ("=="|"!="|"<"|"<="|">"|">=") add-expr ]
    add-expr  := mul-expr { ("+"|"-") mul-expr }
    mul-expr  := unary { ("*"|"/"|"%") unary }
    unary     := ("!"|"-") unary | atom
    atom      := INT | FLOAT | STRING | "true" | "false" | "unit"
               | "nil" "<" type ">"
               | "last" "(" expr "," expr ")"       (likewise delay/time/
               | NAME "(" [ expr {"," expr} ] ")"    merge/default)
               | NAME | "(" expr ")"

Integer/float/string/boolean literals denote constant streams (one
event at timestamp 0), as in the paper's syntactic sugar.  The binary
operators resolve to the integer builtins (use ``fadd``/``fdiv``/... by
name for floats; the comparisons are polymorphic).
"""

from __future__ import annotations

import ast as python_ast
from typing import Dict, List, Optional, Tuple

from ..lang.ast import (
    Const,
    Default,
    Delay,
    Expr,
    Last,
    Lift,
    Merge,
    Nil,
    TimeExpr,
    UnitExpr,
    Var,
)
from ..lang.builtins import builtin
from ..lang.spec import Specification
from ..lang.types import Type, parametric, primitive
from ..lang.types import TypeError_ as LangTypeError
from .lexer import FrontendError, Token, tokenize

_BINARY_OPS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "==": "eq",
    "!=": "neq",
    "<": "lt",
    "<=": "leq",
    ">": "gt",
    ">=": "geq",
    "&&": "and",
    "||": "or",
}


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.position = 0
        #: The token at ``position`` (the stream always ends with eof).
        self.current: Token = self.tokens[0]

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        try:
            self.current = self.tokens[self.position]
        except IndexError:
            pass  # past eof: current stays eof
        return token

    def expect(self, kind: str) -> Token:
        token = self.current
        if token.kind != kind:
            raise FrontendError(
                f"expected {kind!r}, got {token.kind!r} ({token.text!r})",
                token.line,
                token.column,
            )
        return self.advance()

    def accept(self, kind: str) -> Optional[Token]:
        if self.current.kind == kind:
            return self.advance()
        return None

    def skip_newlines(self) -> None:
        while self.current.kind == "newline":
            self.advance()

    def error(self, message: str) -> FrontendError:
        return FrontendError(message, self.current.line, self.current.column)

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        name = self.expect("name").text
        if self.current.kind == "symbol" and self.current.text == "<":
            self.advance()
            params = [self.parse_type()]
            while self.current.kind == "symbol" and self.current.text == ",":
                self.advance()
                params.append(self.parse_type())
            closing = self.expect("symbol")
            if closing.text != ">":
                raise FrontendError(
                    f"expected '>', got {closing.text!r}",
                    closing.line,
                    closing.column,
                )
            try:
                return parametric(name, *params)
            except LangTypeError as exc:
                raise FrontendError(str(exc), closing.line, closing.column)
        prim = primitive(name)
        if prim is None:
            raise self.error(f"unknown type {name!r}")
        return prim

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> Expr:
        if self.accept("if"):
            condition = self.parse_expr()
            self.expect("then")
            then_branch = self.parse_expr()
            self.expect("else")
            else_branch = self.parse_expr()
            return Lift(builtin("ite"), (condition, then_branch, else_branch))
        return self.parse_binary(0)

    _PRECEDENCE: List[Tuple[str, ...]] = [
        ("||",),
        ("&&",),
        ("==", "!=", "<", "<=", ">", ">="),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level: int, first: Optional[Expr] = None) -> Expr:
        """Operators of *level* and tighter; *first* is an already
        parsed leftmost operand."""
        if first is None:
            first = self.parse_unary()
            token = self.current
            if not (token.kind == "symbol" and token.text in _BINARY_OPS):
                return first  # a lone operand: skip the precedence levels
        if level >= len(self._PRECEDENCE):
            return first
        operators = self._PRECEDENCE[level]
        left = self.parse_binary(level + 1, first)
        while self.current.kind == "symbol" and self.current.text in operators:
            op = self.advance().text
            right = self.parse_binary(level + 1)
            left = Lift(builtin(_BINARY_OPS[op]), (left, right))
            if operators == self._PRECEDENCE[2]:
                break  # comparisons do not chain
        return left

    def parse_unary(self) -> Expr:
        if self.current.kind == "symbol" and self.current.text == "!":
            self.advance()
            return Lift(builtin("not"), (self.parse_unary(),))
        if self.current.kind == "symbol" and self.current.text == "-":
            self.advance()
            operand = self.parse_unary()
            if isinstance(operand, Const) and isinstance(
                operand.value, (int, float)
            ):
                return Const(-operand.value)
            return Lift(builtin("neg"), (operand,))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        token = self.current
        if token.kind == "int":
            self.advance()
            return Const(int(token.text))
        if token.kind == "float":
            self.advance()
            return Const(float(token.text))
        if token.kind == "string":
            self.advance()
            return Const(python_ast.literal_eval(token.text))
        if self.accept("true"):
            return Const(True)
        if self.accept("false"):
            return Const(False)
        if self.accept("unit"):
            return UnitExpr()
        if self.accept("nil"):
            if not (self.current.kind == "symbol" and self.current.text == "<"):
                raise FrontendError(
                    "nil requires a type argument: nil<Int>",
                    token.line,
                    token.column,
                )
            self.advance()
            ty = self.parse_type()
            closing = self.expect("symbol")
            if closing.text != ">":
                raise FrontendError(
                    f"expected '>', got {closing.text!r}",
                    closing.line,
                    closing.column,
                )
            return Nil(ty)
        if token.kind in ("last", "delay", "time", "merge", "default"):
            return self.parse_special(token.kind)
        if token.kind == "name":
            self.advance()
            if self.current.kind == "symbol" and self.current.text == "(":
                if token.text == "slift":
                    return self.parse_slift(token)
                return self.parse_call(token)
            return Var(token.text)
        if token.kind == "symbol" and token.text == "(":
            self.advance()
            inner = self.parse_expr()
            closing = self.expect("symbol")
            if closing.text != ")":
                raise FrontendError(
                    f"expected ')', got {closing.text!r}",
                    closing.line,
                    closing.column,
                )
            return inner
        raise self.error(f"unexpected token {token.text!r}")

    def parse_args(self) -> List[Expr]:
        opening = self.expect("symbol")
        if opening.text != "(":
            raise FrontendError(
                f"expected '(', got {opening.text!r}", opening.line, opening.column
            )
        args: List[Expr] = []
        if not (self.current.kind == "symbol" and self.current.text == ")"):
            args.append(self.parse_expr())
            while self.current.kind == "symbol" and self.current.text == ",":
                self.advance()
                args.append(self.parse_expr())
        closing = self.expect("symbol")
        if closing.text != ")":
            raise FrontendError(
                f"expected ')', got {closing.text!r}", closing.line, closing.column
            )
        return args

    def parse_special(self, keyword: str) -> Expr:
        token = self.advance()
        args = self.parse_args()

        def arity(n: int) -> None:
            if len(args) != n:
                raise FrontendError(
                    f"{keyword} expects {n} argument(s), got {len(args)}",
                    token.line,
                    token.column,
                )

        if keyword == "time":
            arity(1)
            return TimeExpr(args[0])
        arity(2)
        if keyword == "last":
            return Last(args[0], args[1])
        if keyword == "delay":
            return Delay(args[0], args[1])
        if keyword == "merge":
            return Merge(args[0], args[1])
        assert keyword == "default"
        value = args[1]
        if not isinstance(value, Const):
            raise FrontendError(
                "default's second argument must be a literal",
                token.line,
                token.column,
            )
        return Default(args[0], value.value)

    def parse_slift(self, token: Token) -> Expr:
        """``slift(func_name, arg1, ..., argN)`` — signal-semantics lift."""
        from ..lang.ast import SLift

        args = self.parse_args()
        if len(args) < 2:
            raise FrontendError(
                "slift needs a function name and at least one argument",
                token.line,
                token.column,
            )
        head = args[0]
        if not isinstance(head, Var):
            raise FrontendError(
                "slift's first argument must be a builtin function name",
                token.line,
                token.column,
            )
        try:
            func = builtin(head.name)
        except KeyError:
            raise FrontendError(
                f"unknown function {head.name!r}", token.line, token.column
            ) from None
        if len(args) - 1 != func.arity:
            raise FrontendError(
                f"{func.name} expects {func.arity} argument(s),"
                f" got {len(args) - 1}",
                token.line,
                token.column,
            )
        return SLift(func, tuple(args[1:]))

    #: Macros usable anywhere in an expression (no self-reference).
    _PLAIN_MACROS = {
        "held": 2,
        "changed": 1,
        "previous": 1,
        "time_since_last": 1,
        "time_of_last": 1,
    }
    #: Macros that reference their own result stream; only valid as the
    #: entire body of a definition.
    _SELF_MACROS = {
        "count": ("counting", 1),
        "sum": ("summing", 1),
        "running_max": ("running_max", 1),
        "running_min": ("running_min", 1),
    }

    def parse_call(self, name_token: Token) -> Expr:
        name = name_token.text
        if name in self._PLAIN_MACROS:
            from ..lang import macros

            args = self.parse_args()
            if len(args) != self._PLAIN_MACROS[name]:
                raise FrontendError(
                    f"{name} expects {self._PLAIN_MACROS[name]} argument(s),"
                    f" got {len(args)}",
                    name_token.line,
                    name_token.column,
                )
            return getattr(macros, name)(*args)
        if name in self._SELF_MACROS:
            # reaching here means the macro is nested inside a larger
            # expression — parse_def_body handles the legal position
            raise FrontendError(
                f"{name}(...) is recursive and must be the entire"
                " right-hand side of a definition",
                name_token.line,
                name_token.column,
            )
        args = self.parse_args()
        try:
            func = builtin(name_token.text)
        except KeyError:
            raise FrontendError(
                f"unknown function {name_token.text!r}",
                name_token.line,
                name_token.column,
            ) from None
        if len(args) != func.arity:
            raise FrontendError(
                f"{func.name} expects {func.arity} argument(s), got {len(args)}",
                name_token.line,
                name_token.column,
            )
        return Lift(func, tuple(args))

    # -- declarations ------------------------------------------------------

    def parse_def_body(self, def_name: str) -> Expr:
        """The right-hand side of a definition; self-referencing macros
        (``count``/``sum``/``running_max``/``running_min``) are only
        legal here, as the entire body."""
        token = self.current
        next_token = self.tokens[self.position + 1]
        if (
            token.kind == "name"
            and token.text in self._SELF_MACROS
            and next_token.kind == "symbol"
            and next_token.text == "("
        ):
            from ..lang import macros

            self.advance()
            macro_name, arity = self._SELF_MACROS[token.text]
            args = self.parse_args()
            if len(args) != arity:
                raise FrontendError(
                    f"{token.text} expects {arity} argument(s),"
                    f" got {len(args)}",
                    token.line,
                    token.column,
                )
            if self.current.kind not in ("newline", "eof"):
                raise FrontendError(
                    f"{token.text}(...) must be the entire right-hand side",
                    self.current.line,
                    self.current.column,
                )
            return getattr(macros, macro_name)(def_name, *args)
        return self.parse_expr()

    def parse_spec(self) -> Specification:
        inputs: Dict[str, Type] = {}
        definitions: Dict[str, Expr] = {}
        annotations: Dict[str, Type] = {}
        outputs: List[str] = []
        self.skip_newlines()
        while self.current.kind != "eof":
            if self.accept("in"):
                name = self.expect("name").text
                colon = self.expect("symbol")
                if colon.text != ":":
                    raise FrontendError(
                        "input declarations need ': Type'",
                        colon.line,
                        colon.column,
                    )
                if name in inputs:
                    raise self.error(f"duplicate input {name!r}")
                inputs[name] = self.parse_type()
            elif self.accept("def"):
                name = self.expect("name").text
                if name in definitions:
                    raise self.error(f"duplicate definition {name!r}")
                if self.current.kind == "symbol" and self.current.text == ":":
                    self.advance()
                    annotations[name] = self.parse_type()
                assign = self.expect("symbol")
                if assign.text != ":=":
                    raise FrontendError(
                        "definitions use ':='", assign.line, assign.column
                    )
                definitions[name] = self.parse_def_body(name)
            elif self.accept("out"):
                outputs.append(self.expect("name").text)
                while self.current.kind == "symbol" and self.current.text == ",":
                    self.advance()
                    outputs.append(self.expect("name").text)
            else:
                raise self.error(
                    f"expected 'in', 'def' or 'out', got {self.current.text!r}"
                )
            if self.current.kind != "eof":
                self.expect("newline")
                self.skip_newlines()
        return Specification(
            inputs,
            definitions,
            outputs or None,
            type_annotations=annotations,
        )


def parse_spec(text: str) -> Specification:
    """Parse the concrete syntax in *text* into a :class:`Specification`."""
    return _Parser(text).parse_spec()
