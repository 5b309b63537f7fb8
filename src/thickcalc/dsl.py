"""Expression DSL: parser, canonical printer, and the query runner.

Statements, one per line (``#`` starts a comment):

    let <name> = <expression>
    eval <distribution> , <testfn>
    derive <distribution>
    project <distribution> , <testfn>
    expand <testfn> , <max-order>
    check <suite-name>

Expression grammar (precedence: constructors > ``*``/``·`` > ``+``/``-``):

    dist   := Pf( density ) | dstar | glambda(q)[·delta[q]] | delta[q](pair(a,b))
            | d*( dist ) | mult * dist | dist +- dist | number * dist
            | translate(dist, c) | dilate(dist, c)
    density:= abs(x)^num | H(x) | pair(a,b) * r^num
    testfn := bump(R) | mono(j, pair(a,b), R) | poly([c0,...], R)
            | testfn * testfn | D(testfn) | testfn +- testfn
    mult   := H(x) | x^j | mult(pair(a,b), j) | number * mult | D(mult) | bound name

Numbers are integers, rationals ``p/q`` (kept exact, so the integer-versus-not
power dispatch is intent-driven) or decimals such as ``0.5``, ``2.5e-3`` and
``1e-05`` (always treated as non-integer).  The name ``d`` is reserved:
``d*( ... )`` is the derivative operator.

The printer writes the canonical text of a tree, which parses back to an equal
tree: a one-term combination keeps its coefficient (``1 * dstar``), a scaled
or negated product is parenthesized (``2 * (x^2 * dstar)``), and the zero
multiplier is ``0 * H(x)``.  An ``eval`` or ``project`` record lists the series
terms of the finite-part formula whose coefficient is not zero.

An ``eval`` whose test function is a chain ``D(...D(psi)...)`` spanning the
whole argument pairs ``(-1)^k d*^k f`` with ``psi``, so the derivatives land
on the distribution and ``psi`` is never differentiated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Union

from . import checks, distributions, expansion, pairing
from .distributions import (
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    ThickDelta,
    Translate,
    delta_star,
    g_lambda_delta,
    simplify,
)
from .errors import DslError, PointMismatchError, ThickCalcError
from .sphere import SpherePair
from .testfn import (
    Monomial,
    Multiplier,
    ThickTestFunction,
    constant_multiplier,
    derivative as fn_derivative,
    from_polynomial,
    heaviside_multiplier,
    monomial_multiplier,
    multiply_by,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)

Number = Union[int, Fraction, float]
Value = Union[Number, "ThickTestFunction", "Multiplier", object]


# -- lexer ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<decimal>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[()\[\],+\-*^=/·])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # 'int' | 'decimal' | 'name' | symbol text
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "sym":
            kind = m.group()
        elif kind == "bad":
            raise DslError(f"unexpected character {m.group()!r}", m.start())
        out.append(Token(kind, m.group(), m.start()))
    return out


class _Cursor:
    def __init__(self, tokens: List[Token], text: str):
        self.tokens = tokens
        self.text = text
        self.i = 0
        self.depth = -1  # nesting level of the factor being parsed; 0 is outermost

    @property
    def position(self) -> int:
        """Where the next token starts, or the end of the text."""
        t = self.peek()
        return t.pos if t else len(self.text)

    def peek(self, ahead: int = 0) -> Optional[Token]:
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise DslError("unexpected end of input", len(self.text))
        self.i += 1
        return t

    def expect(self, kind: str, word: Optional[str] = None) -> Token:
        """The next token, which must be of ``kind`` (and read ``word``, if given)."""
        t = self.peek()
        if t is None or t.kind != kind or (word is not None and t.text != word):
            got = t.text if t else "end of input"
            raise DslError(f"expected {word or kind!r}, got {got!r}", self.position)
        return self.next()

    def at(self, kind: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t is not None and t.kind == kind

    def at_name(self, word: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t is not None and t.kind == "name" and t.text == word

    def done(self) -> bool:
        return self.i >= len(self.tokens)


# -- parser --------------------------------------------------------------------

#: Deepest nesting the parser accepts; it recurses about five frames a level.
MAX_NESTING = 100

#: Every ``name(arg, ...)`` form: the kinds of its arguments (a ``function`` is
#: a test function or a multiplier) and the constructor that ``Parser._call``
#: reads them for.  ``D`` looks ``fn_derivative`` up when it runs, so that a
#: replacement of the module attribute (a tracer, say) sees every ``D( )``.
_CALLS = {
    "pair": (("number", "number"), SpherePair),
    "bump": (("number",), plateau_bump),
    "mono": (("integer", "pair", "number"), thick_monomial),
    "poly": (("list", "number"), from_polynomial),
    "mult": (("pair", "integer"), lambda pair, order: monomial_multiplier(order, pair)),
    "glambda": (("number",), g_lambda_delta),
    "translate": (("distribution", "number"), Translate),
    "dilate": (("distribution", "number"), Dilate),
    "D": (("function",), lambda f: fn_derivative(f)),
    "d*": (("distribution",), Derivative),
}


class Parser:
    def __init__(self, bindings=None):
        self.bindings = dict(bindings or {})

    # numbers ------------------------------------------------------------

    def parse_number(self, c: _Cursor) -> Number:
        sign = 1
        while c.at("-") or c.at("+"):
            if c.next().kind == "-":
                sign = -sign
        if c.at("decimal"):
            return sign * float(c.next().text)
        tok = c.expect("int")
        value = int(tok.text)
        if c.at("/") and c.at("int", 1):
            c.next()
            den = int(c.next().text)
            if den == 0:
                raise DslError("zero denominator", tok.pos)
            q = Fraction(sign * value, den)
            return int(q) if q.denominator == 1 else q
        return sign * value

    def parse_int(self, c: _Cursor) -> int:
        sign = 1
        while c.at("-"):
            c.next()
            sign = -sign
        return sign * int(c.expect("int").text)

    def parse_pair(self, c: _Cursor) -> SpherePair:
        if not c.at_name("pair"):
            raise DslError("expected pair(a, b)", c.position)
        return self._call(c, "pair")

    # expressions ----------------------------------------------------------

    def parse_value(self, c: _Cursor) -> Value:
        left = self._multiplicative(c)
        while c.at("+") or c.at("-"):
            op = c.next()
            right = self._multiplicative(c)
            left = self._combine_add(left, right, op)
        return left

    def _multiplicative(self, c: _Cursor) -> Value:
        left = self._unary(c)
        while c.at("*") or c.at("·"):
            op = c.next()
            right = self._unary(c)
            left = self._combine_mul(left, right, op)
        return left

    def _unary(self, c: _Cursor) -> Value:
        c.depth += 1  # every nesting level, by '(', an argument or a unary '-', passes here
        if c.depth > MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels", c.position)
        if c.at("-"):
            tok = c.next()
            value = self._combine_mul(-1, self._unary(c), tok)
        else:
            value = self._primary(c)
        c.depth -= 1
        return value

    def _combine_add(self, a: Value, b: Value, op: Token) -> Value:
        if isinstance(a, (int, Fraction, float)) and isinstance(b, (int, Fraction, float)):
            return a + b if op.kind == "+" else a - b
        if isinstance(a, ThickTestFunction) and isinstance(b, ThickTestFunction):
            return a + b if op.kind == "+" else a + b.scale(-1)
        if _is_dist(a) and _is_dist(b):
            coefficient = Fraction(1) if op.kind == "+" else Fraction(-1)
            return _build(op, _flatten_combination, ((Fraction(1), a), (coefficient, b)))
        raise DslError(f"cannot combine {_typename(a)} and {_typename(b)} with {op.kind!r}",
                       op.pos)

    def _combine_mul(self, a: Value, b: Value, op: Token) -> Value:
        if isinstance(a, (int, Fraction, float)) and isinstance(b, (int, Fraction, float)):
            return a * b
        if isinstance(a, (int, Fraction, float)):
            if _is_dist(b):
                return _flatten_combination(((_build(op, Fraction, a), b),))
            if isinstance(b, ThickTestFunction):
                return _build(op, b.scale, a)
            if isinstance(b, Multiplier):
                return _build(op, monomial_scale, b, a)
        if isinstance(b, (int, Fraction, float)):
            return self._combine_mul(b, a, op)
        if isinstance(a, Multiplier) and _is_dist(b):
            return _build(op, MultiplierProduct, a, b)
        if isinstance(a, Multiplier) and isinstance(b, ThickTestFunction):
            return multiply_by(a, b)
        if isinstance(a, ThickTestFunction) and isinstance(b, Multiplier):
            return multiply_by(b, a)
        if isinstance(a, ThickTestFunction) and isinstance(b, ThickTestFunction):
            return a * b
        raise DslError(f"cannot multiply {_typename(a)} by {_typename(b)}", op.pos)

    def _primary(self, c: _Cursor) -> Value:
        t = c.peek()
        if t is None:
            raise DslError("unexpected end of expression", len(c.text))
        if t.kind in ("int", "decimal"):
            return self.parse_number(c)
        if t.kind == "(":
            c.next()
            v = self.parse_value(c)
            c.expect(")")
            return v
        if t.kind != "name":
            raise DslError(f"unexpected token {t.text!r}", t.pos)
        word = t.text
        if word == "d" and c.at("*", 1) and c.at("(", 2):
            word = "d*"
        if word in _CALLS and word != "pair":  # pair(a, b) is an argument, not a value
            value = self._call(c, word)
            if word == "glambda" and (c.at("·") or c.at("*")) and c.at_name("delta", 1):
                c.next()
                value = ThickDelta(value.weights, self._degree(c))
            return value
        if word == "Pf":
            c.next()
            c.expect("(")
            pair, power = SpherePair(1, 0), 0
            if c.at_name("H"):
                _read_of_x(c, "H")
            else:
                if c.at_name("abs"):
                    _read_of_x(c, "abs")
                    pair = SpherePair(1, 1)
                elif c.at_name("pair"):
                    pair = self.parse_pair(c)
                    c.expect("*")
                    c.expect("name", "r")
                else:
                    raise DslError("Pf( ) takes abs(x)^a, H(x) or pair(p,q) * r^a", c.position)
                c.expect("^")
                power = self.parse_number(c)
            c.expect(")")
            return _build(t, PfDensity, pair, power)
        if word == "dstar":
            c.next()
            return delta_star()
        if word == "delta":
            degree = self._degree(c)
            c.expect("(")
            weights = self.parse_pair(c)
            c.expect(")")
            return ThickDelta(weights, degree)
        if word == "H" and c.at("(", 1):
            _read_of_x(c, "H")
            return heaviside_multiplier()
        if word == "x" and c.at("^", 1):
            c.next(); c.next()
            return power_multiplier(self.parse_int(c))
        if word in self.bindings:
            c.next()
            return self.bindings[word]
        raise DslError(f"unbound name {word!r}", t.pos)

    def _call(self, c: _Cursor, name: str):
        """Read ``name(arg, ...)`` for a name in ``_CALLS`` and build its value;
        an argument the constructor rejects is reported at the name."""
        tok = c.next()
        if name == "d*":
            c.next()
        kinds, constructor = _CALLS[name]
        c.expect("(")
        args = []
        for kind in kinds:
            if args:
                c.expect(",")
            if kind == "number":
                arg = self.parse_number(c)
            elif kind == "integer":
                arg = self.parse_int(c)
            elif kind == "pair":
                arg = self.parse_pair(c)
            elif kind == "list":
                c.expect("[")
                arg = []
                while not c.at("]"):
                    if arg:
                        c.expect(",")
                    arg.append(self.parse_number(c))
                c.next()
            else:
                start = c.position
                arg = self.parse_value(c)
                if not (_is_dist(arg) if kind == "distribution"
                        else isinstance(arg, (ThickTestFunction, Multiplier))):
                    raise DslError(f"expected a {kind} argument, got {_typename(arg)}", start)
            args.append(arg)
        c.expect(")")
        return _build(tok, constructor, *args)

    def _degree(self, c: _Cursor) -> int:
        """Read ``delta[q]``."""
        c.expect("name", "delta")
        c.expect("[")
        degree = self.parse_int(c)
        c.expect("]")
        return degree


def _read_of_x(c: _Cursor, name: str):
    """Read ``name(x)``."""
    c.expect("name", name)
    c.expect("(")
    c.expect("name", "x")
    c.expect(")")


def _build(tok: Token, constructor, *args):
    """Call a constructor, reporting the arguments it rejects at the token."""
    try:
        return constructor(*args)
    except (ValueError, OverflowError, PointMismatchError) as exc:
        raise DslError(str(exc), tok.pos) from None


def monomial_scale(m: Multiplier, k) -> Multiplier:
    if m.is_zero() or k == 0:
        return constant_multiplier(0, m.point)
    if not isinstance(m.body, Monomial):
        raise DslError("can only scale simple monomial multipliers")
    pair = m.body.pair * Fraction(k)
    return monomial_multiplier(m.body.order, pair, m.point)


def _is_dist(v) -> bool:
    return isinstance(v, (PfDensity, ThickDelta, Derivative, MultiplierProduct,
                          LinearCombination, Translate, Dilate))


def _typename(v) -> str:
    if _is_dist(v):
        return "a distribution"
    if isinstance(v, ThickTestFunction):
        return "a test function"
    if isinstance(v, Multiplier):
        return "a multiplier"
    return "a number"


def _flatten_combination(terms) -> LinearCombination:
    flat = []
    for coefficient, dist in terms:
        if isinstance(dist, LinearCombination):
            flat.extend((coefficient * c2, d2) for c2, d2 in dist.terms)
        else:
            flat.append((coefficient, dist))
    return LinearCombination(tuple(flat))


# -- printer ---------------------------------------------------------------------


def print_multiplier(m: Multiplier) -> str:
    body = m.body
    if isinstance(body, Monomial):
        if body.order == 0 and body.pair == SpherePair(1, 0):
            return "H(x)"
        sign = 1 if body.order % 2 == 0 else -1
        if body.pair.plus == 1 and body.pair.minus == sign:
            return f"x^{body.order}"
        return f"mult(pair({body.pair.plus},{body.pair.minus}), {body.order})"
    if m.is_zero():
        return "0 * H(x)"
    raise DslError("multiplier has no canonical text form")


def print_distribution(d) -> str:
    if isinstance(d, ThickDelta):
        w = d.weights.weights
        if w == SpherePair(1, 1) and d.degree == 0:
            return "dstar"
        if w.plus + w.minus == 2:
            lam = w.plus / 2
            return f"glambda({lam})·delta[{d.degree}]"
        return f"delta[{d.degree}](pair({w.plus},{w.minus}))"
    if isinstance(d, PfDensity):
        if d.pair == SpherePair(1, 1):
            return f"Pf(abs(x)^{d.power})"
        if d.pair == SpherePair(1, 0) and d.power == 0:
            return "Pf(H(x))"
        return f"Pf(pair({d.pair.plus},{d.pair.minus}) * r^{d.power})"
    if isinstance(d, Derivative):
        return f"d*({print_distribution(d.inner)})"
    if isinstance(d, MultiplierProduct):
        inner = print_distribution(d.inner)
        if isinstance(d.inner, (LinearCombination, MultiplierProduct)):
            inner = f"({inner})"  # else its multiplier or coefficient binds to ours
        return f"{print_multiplier(d.multiplier)} * {inner}"
    if isinstance(d, LinearCombination):
        if not d.terms:
            return "0"
        out = ""
        for coefficient, term in d.terms:
            text = print_distribution(term)
            # a one-term combination written bare would read back as its term
            scaled = abs(coefficient) != 1 or (len(d.terms) == 1 and coefficient == 1)
            # and a leading number or '-' would scale a product's multiplier
            if isinstance(term, LinearCombination) or (
                    isinstance(term, MultiplierProduct) and (scaled or coefficient < 0)):
                text = f"({text})"
            if scaled:
                text = f"{abs(coefficient)} * {text}"
            if not out:
                out = f"-{text}" if coefficient < 0 else text
            else:
                out += f" {'-' if coefficient < 0 else '+'} {text}"
        return out
    if isinstance(d, Translate):
        return f"translate({print_distribution(d.inner)}, {d.shift})"
    if isinstance(d, Dilate):
        return f"dilate({print_distribution(d.inner)}, {d.factor})"
    raise DslError(f"cannot print {type(d).__name__}")


# -- programs ----------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    command: str  # eval | derive | project | expand | check
    source: str
    dist: object = None
    testfn: Optional[ThickTestFunction] = None
    derivatives: int = 0  # an eval pairs d*^k dist with testfn, times (-1)^k
    max_order: Optional[int] = None
    suite: Optional[str] = None


@dataclass
class Program:
    bindings: dict
    queries: List[Query]


@dataclass
class Report:
    """Per-query records plus the flags the exit status is derived from."""

    records: List[dict]
    had_error: bool = False
    check_failed: bool = False

    @property
    def exit_status(self) -> int:
        if self.had_error:
            return 3
        if self.check_failed:
            return 1
        return 0


def run(program: Program, cfg=None) -> Report:
    """Execute the queries in order; errors are recorded per query and do not
    abort the rest of the program."""
    cfg = cfg or pairing.DEFAULT_CONFIG
    report = Report(records=[])
    for q in program.queries:
        rec = {"query": q.command, "source": q.source}
        try:
            if q.command in ("eval", "project"):
                target = distributions.project(q.dist) if q.command == "project" else q.dist
                target = distributions.nested_derivative(target, q.derivatives)
                res = pairing.pair(target, q.testfn, cfg).scaled((-1) ** q.derivatives)
                rec["expr"] = print_distribution(q.dist)
                rec["value"] = float(res.value)
                if isinstance(res.value, Fraction):
                    rec["value_exact"] = str(res.value)
                rec["split_radius"] = res.split_radius
                rec["quad_error"] = res.quad_error
                rec["series_terms"] = [[j, float(v)] for j, v in res.series_terms]
                rec["log_term"] = float(res.log_term)
            elif q.command == "derive":
                rec["expr"] = print_distribution(q.dist)
                rec["result"] = print_distribution(simplify(Derivative(q.dist)))
            elif q.command == "expand":
                rec["result"] = expansion.render(q.testfn.expansion.truncate(q.max_order))
            elif q.command == "check":
                outcomes = checks.run_suite(q.suite, cfg)
                rec["suite"] = q.suite
                rec["passed"] = all(o.passed for o in outcomes)
                rec["outcomes"] = [
                    {"name": f"{o.suite}.{o.name}", "passed": o.passed,
                     "observed": o.observed, "expected": o.expected,
                     "tolerance": o.tolerance}
                    for o in outcomes
                ]
                if not rec["passed"]:
                    report.check_failed = True
        except (ThickCalcError, KeyError) as exc:
            rec["error"] = str(exc)
            report.had_error = True
        report.records.append(rec)
    return report


_COMMANDS = ("eval", "derive", "project", "expand", "check", "let")


def parse_program(text: str) -> Program:
    parser = Parser()
    queries: List[Query] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line:
            _parse_statement(parser, line, queries)
    return Program(parser.bindings, queries)


def parse_query(text: str) -> Program:
    """A single statement, e.g. handed to the CLI with -e."""
    parser = Parser()
    queries: List[Query] = []
    _parse_statement(parser, text.strip(), queries)
    return Program(parser.bindings, queries)


def _parse_statement(parser: Parser, line: str, queries: List[Query]):
    c = _Cursor(tokenize(line), line)
    head = c.peek()
    if head is None:
        return
    if head.kind != "name" or head.text not in _COMMANDS:
        raise DslError(f"expected a statement keyword, got {head.text!r}", head.pos)
    c.next()
    if head.text == "let":
        name = c.expect("name").text
        c.expect("=")
        value = parser.parse_value(c)
        _expect_end(c, line)
        parser.bindings[name] = value
        return
    if head.text == "check":
        pieces = []
        while not c.done():
            t = c.next()
            if t.kind not in ("name", "-"):
                raise DslError("check takes a suite name", t.pos)
            pieces.append(t.text)
        if not pieces:
            pieces = ["all"]
        queries.append(Query("check", line, suite="".join(pieces)))
        return
    if head.text == "derive":
        dist = parser.parse_value(c)
        _expect_end(c, line)
        if not _is_dist(dist):
            raise DslError("derive takes a distribution", head.pos)
        queries.append(Query("derive", line, dist=dist))
        return
    if head.text == "expand":
        fn = parser.parse_value(c)
        c.expect(",")
        order = parser.parse_int(c)
        _expect_end(c, line)
        if not isinstance(fn, (ThickTestFunction, Multiplier)):
            raise DslError("expand takes a test function", head.pos)
        queries.append(Query("expand", line, testfn=fn, max_order=order))
        return
    # eval | project
    dist = parser.parse_value(c)
    c.expect(",")
    fn, k = _derivative_chain(parser, c) if head.text == "eval" else (parser.parse_value(c), 0)
    _expect_end(c, line)
    if not _is_dist(dist):
        raise DslError(f"{head.text} takes a distribution first", head.pos)
    if not isinstance(fn, ThickTestFunction):
        raise DslError(f"{head.text} takes a test function second", head.pos)
    queries.append(Query(head.text, line, dist=dist, testfn=fn, derivatives=k))


def _derivative_chain(parser: Parser, c: _Cursor):
    """An eval's test-function argument as (psi, k): D(...D(psi)...) with k
    D's spanning the whole argument keeps psi undifferentiated, since
    <f, D^k psi> = (-1)^k <d*^k f, psi>; any other argument is (value, 0).
    psi is parsed at the nesting depth the D's give it, so that every error
    is the one the plain parse raises."""
    start = c.i
    k = 0
    while k < MAX_NESTING and c.at_name("D") and c.at("(", 1):
        c.i += 2
        k += 1
    if k:
        c.depth += k
        psi = parser.parse_value(c)
        c.depth -= k
        if isinstance(psi, ThickTestFunction) and c.i + k == len(c.tokens) \
                and all(c.at(")", j) for j in range(k)):
            c.i += k
            return psi, k
        c.i = start
    return parser.parse_value(c), 0


def _expect_end(c: _Cursor, line: str):
    if not c.done():
        t = c.peek()
        raise DslError(f"unexpected trailing input {t.text!r}", t.pos)
