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
``d*( ... )`` is the derivative operator.  ``let`` refuses the names that are
always built-ins (``bump``, ``Pf``, ``dstar``, ``delta``, ...).

``Parser`` reads one statement at a time from its plain ``(kind, text, pos)``
tokens, which end in an end token, by index; ``Parser.parse_value`` reads all
three binding levels: ``+``/``-``, ``*``/``·`` and a unary ``-`` factor.

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
from fractions import Fraction
from typing import List, Optional, Union

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
from .sphere import FrozenRecord, Record, SpherePair, exact, parity_pair, ratio
from .testfn import (
    Multiplier,
    ThickTestFunction,
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


def tokenize(text: str) -> List[tuple]:
    """The tokens of ``text`` as ``(kind, text, pos)``; the kind is ``int``,
    ``decimal``, ``name`` or the symbol itself."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "sym":
            kind = m.group()
        elif kind == "bad":
            raise DslError(f"unexpected character {m.group()!r}", m.start())
        out.append((kind, m.group(), m.start()))
    return out


# -- parser --------------------------------------------------------------------

#: Deepest nesting the parser accepts; it recurses at most three frames a level.
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

#: The names ``Parser._primary`` always reads as built-ins, so ``let`` refuses
#: them; ``H``, ``x`` and ``d`` are built-ins only before ``(``, ``^`` and ``*(``.
_BUILTIN_NAMES = (frozenset(_CALLS) - {"pair", "d*"}) | {"Pf", "dstar", "delta"}

#: The binding level of each binary operator; a unary ``-`` binds at level 2.
_BINDING = {"+": 0, "-": 0, "*": 1, "·": 1}


class Parser:
    """Reads statements into values and queries, one statement at a time.

    The tokens of the statement being read end in an end token
    ``(None, "end of input", len(text))``, so a look ahead never runs off the
    list; ``bindings`` holds the ``let`` names from one statement to the next."""

    def __init__(self, bindings=None):
        self.bindings = dict(bindings or {})

    def start(self, text: str):
        """Read the tokens of ``text`` from the first one on."""
        self.tokens = tokenize(text)
        self.tokens.append((None, "end of input", len(text)))
        self.i = 0
        self.depth = -1  # nesting level of the factor being parsed; 0 is outermost

    def at(self, kind: Optional[str], ahead: int = 0, word: Optional[str] = None) -> bool:
        """Whether the token ``ahead`` of the next one is of ``kind`` (and reads
        ``word``, if given); ``at(None)`` is the end of the statement."""
        t = self.tokens[self.i + ahead]
        return t[0] == kind and (word is None or t[1] == word)

    def next(self) -> tuple:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, word: Optional[str] = None) -> tuple:
        """The next token, which must be of ``kind`` (and read ``word``, if given)."""
        t = self.tokens[self.i]
        if t[0] != kind or (word is not None and t[1] != word):
            raise DslError(f"expected {word or kind!r}, got {t[1]!r}", t[2])
        self.i += 1
        return t

    # numbers ------------------------------------------------------------

    def parse_number(self) -> Number:
        sign = 1
        while self.at("-") or self.at("+"):
            if self.next()[0] == "-":
                sign = -sign
        if self.at("decimal"):
            return sign * float(self.next()[1])
        _, text, pos = self.expect("int")
        value = int(text)
        if self.at("/") and self.at("int", 1):
            self.i += 1
            den = int(self.next()[1])
            if den == 0:
                raise DslError("zero denominator", pos)
            return ratio(sign * value, den)
        return sign * value

    def parse_int(self) -> int:
        sign = 1
        while self.at("-"):
            self.i += 1
            sign = -sign
        return sign * int(self.expect("int")[1])

    def parse_pair(self) -> SpherePair:
        if not self.at("name", word="pair"):
            raise DslError("expected pair(a, b)", self.tokens[self.i][2])
        return self._call("pair")

    # expressions ----------------------------------------------------------

    def parse_value(self, level: int = 0) -> Value:
        """Read a value whose binary operators bind at ``level`` or tighter:
        ``+``/``-`` at 0, ``*``/``·`` at 1, and at 2 one factor, which is a
        unary ``-`` or a primary."""
        self.depth += 1  # every nesting level, by '(', an argument or a unary '-', passes here
        if self.depth > MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels",
                           self.tokens[self.i][2])
        if self.at("-"):
            op = self.next()
            left = self._combine_mul(-1, self.parse_value(2), op)
        else:
            left = self._primary()
        self.depth -= 1
        while (binding := _BINDING.get(self.tokens[self.i][0], -1)) >= level:
            op = self.next()
            right = self.parse_value(binding + 1)
            combine = self._combine_add if binding == 0 else self._combine_mul
            left = combine(left, right, op)
        return left

    def _combine_add(self, a: Value, b: Value, op: tuple) -> Value:
        if isinstance(a, (int, Fraction, float)) and isinstance(b, (int, Fraction, float)):
            return a + b if op[0] == "+" else a - b
        if isinstance(a, ThickTestFunction) and isinstance(b, ThickTestFunction):
            return a + b if op[0] == "+" else a + b.scale(-1)
        if _is_dist(a) and _is_dist(b):
            return _build(op[2], LinearCombination, ((1, a), (1 if op[0] == "+" else -1, b)))
        raise DslError(f"cannot combine {_typename(a)} and {_typename(b)} with {op[0]!r}",
                       op[2])

    def _combine_mul(self, a: Value, b: Value, op: tuple) -> Value:
        if isinstance(a, (int, Fraction, float)) and isinstance(b, (int, Fraction, float)):
            return a * b
        if isinstance(a, (int, Fraction, float)):
            if _is_dist(b):
                return LinearCombination(((_build(op[2], exact, a), b),))
            if isinstance(b, (ThickTestFunction, Multiplier)):
                return _build(op[2], b.scale, a)
        if isinstance(b, (int, Fraction, float)):
            return self._combine_mul(b, a, op)
        if isinstance(a, Multiplier) and _is_dist(b):
            return _build(op[2], MultiplierProduct, a, b)
        if isinstance(a, Multiplier) and isinstance(b, ThickTestFunction):
            return multiply_by(a, b)
        if isinstance(a, ThickTestFunction) and isinstance(b, Multiplier):
            return multiply_by(b, a)
        if isinstance(a, ThickTestFunction) and isinstance(b, ThickTestFunction):
            return a * b
        raise DslError(f"cannot multiply {_typename(a)} by {_typename(b)}", op[2])

    def _primary(self) -> Value:
        kind, word, pos = self.tokens[self.i]
        if kind is None:
            raise DslError("unexpected end of expression", pos)
        if kind in ("int", "decimal"):
            return self.parse_number()
        if kind == "(":
            self.i += 1
            v = self.parse_value()
            self.expect(")")
            return v
        if kind != "name":
            raise DslError(f"unexpected token {word!r}", pos)
        if word == "d" and self.at("*", 1) and self.at("(", 2):
            word = "d*"
        if word in _CALLS and word != "pair":  # pair(a, b) is an argument, not a value
            value = self._call(word)
            if word == "glambda" and (self.at("·") or self.at("*")) \
                    and self.at("name", 1, "delta"):
                self.i += 1
                value = ThickDelta(value.weights, self._degree())
            return value
        if word == "Pf":
            self.i += 1
            self.expect("(")
            pair, power = SpherePair(1, 0), 0
            if self.at("name", word="H"):
                self._read_of_x("H")
            else:
                if self.at("name", word="abs"):
                    self._read_of_x("abs")
                    pair = SpherePair(1, 1)
                elif self.at("name", word="pair"):
                    pair = self.parse_pair()
                    self.expect("*")
                    self.expect("name", "r")
                else:
                    raise DslError("Pf( ) takes abs(x)^a, H(x) or pair(p,q) * r^a",
                                   self.tokens[self.i][2])
                self.expect("^")
                power = self.parse_number()
            self.expect(")")
            return _build(pos, PfDensity, pair, power)
        if word == "dstar":
            self.i += 1
            return delta_star()
        if word == "delta":
            degree = self._degree()
            self.expect("(")
            weights = self.parse_pair()
            self.expect(")")
            return ThickDelta(weights, degree)
        if word == "H" and self.at("(", 1):
            self._read_of_x("H")
            return heaviside_multiplier()
        if word == "x" and self.at("^", 1):
            self.i += 2
            return power_multiplier(self.parse_int())
        if word in self.bindings:
            self.i += 1
            return self.bindings[word]
        raise DslError(f"unbound name {word!r}", pos)

    def _call(self, name: str):
        """Read ``name(arg, ...)`` for a name in ``_CALLS`` and build its value;
        an argument the constructor rejects is reported at the name."""
        pos = self.next()[2]
        if name == "d*":
            self.i += 1
        kinds, constructor = _CALLS[name]
        self.expect("(")
        args = []
        for kind in kinds:
            if args:
                self.expect(",")
            if kind == "number":
                arg = self.parse_number()
            elif kind == "integer":
                arg = self.parse_int()
            elif kind == "pair":
                arg = self.parse_pair()
            elif kind == "list":
                self.expect("[")
                arg = []
                while not self.at("]"):
                    if arg:
                        self.expect(",")
                    arg.append(self.parse_number())
                self.i += 1
            else:
                start = self.tokens[self.i][2]
                arg = self.parse_value()
                if not (_is_dist(arg) if kind == "distribution"
                        else isinstance(arg, (ThickTestFunction, Multiplier))):
                    raise DslError(f"expected a {kind} argument, got {_typename(arg)}", start)
            args.append(arg)
        self.expect(")")
        return _build(pos, constructor, *args)

    def _degree(self) -> int:
        """Read ``delta[q]``."""
        self.expect("name", "delta")
        self.expect("[")
        degree = self.parse_int()
        self.expect("]")
        return degree

    def _read_of_x(self, name: str):
        """Read ``name(x)``."""
        self.expect("name", name)
        self.expect("(")
        self.expect("name", "x")
        self.expect(")")

    # statements -----------------------------------------------------------

    def _parse_statement(self, line: str) -> Optional[Query]:
        """Read one statement; a ``let`` binds its name and gives no query.
        Positions count from the start of ``line``; the query's source is
        the stripped line."""
        self.start(line)
        source = line.strip()
        kind, head, pos = self.next()
        if kind != "name" or head not in _COMMANDS:
            raise DslError(f"expected a statement keyword, got {head!r}", pos)
        if head == "let":
            _, name, name_pos = self.expect("name")
            if name in _BUILTIN_NAMES:
                raise DslError(f"cannot bind {name!r}: it is a built-in name", name_pos)
            self.expect("=")
            value = self.parse_value()
            self._expect_end()
            self.bindings[name] = value
            return None
        if head == "check":
            pieces = []
            while not self.at(None):
                kind, word, where = self.next()
                if kind not in ("name", "-"):
                    raise DslError("check takes a suite name", where)
                pieces.append(word)
            return Query("check", source, suite="".join(pieces) or "all")
        first = self.parse_value()
        if head == "derive":
            self._expect_end()
            if not _is_dist(first):
                raise DslError("derive takes a distribution", pos)
            return Query("derive", source, dist=first)
        self.expect(",")
        if head == "expand":
            order = self.parse_int()
            self._expect_end()
            if not isinstance(first, (ThickTestFunction, Multiplier)):
                raise DslError("expand takes a test function", pos)
            return Query("expand", source, testfn=first, max_order=order)
        # eval | project
        fn, k = self._derivative_chain() if head == "eval" else (self.parse_value(), 0)
        self._expect_end()
        if not _is_dist(first):
            raise DslError(f"{head} takes a distribution first", pos)
        if not isinstance(fn, ThickTestFunction):
            raise DslError(f"{head} takes a test function second", pos)
        return Query(head, source, dist=first, testfn=fn, derivatives=k)

    def _derivative_chain(self):
        """An eval's test-function argument as (psi, k): D(...D(psi)...) with k
        D's spanning the whole argument keeps psi undifferentiated, since
        <f, D^k psi> = (-1)^k <d*^k f, psi>; any other argument is (value, 0).
        psi is parsed at the nesting depth the D's give it, so that every error
        is the one the plain parse raises."""
        start = self.i
        k = 0
        while k < MAX_NESTING and self.at("name", word="D") and self.at("(", 1):
            self.i += 2
            k += 1
        if k:
            self.depth += k
            psi = self.parse_value()
            self.depth -= k
            if isinstance(psi, ThickTestFunction) and self.i + k == len(self.tokens) - 1 \
                    and all(self.at(")", j) for j in range(k)):
                self.i += k
                return psi, k
            self.i = start
        return self.parse_value(), 0

    def _expect_end(self):
        kind, text, pos = self.tokens[self.i]
        if kind is not None:
            raise DslError(f"unexpected trailing input {text!r}", pos)


def _build(pos: int, constructor, *args):
    """Call a constructor, reporting the arguments it rejects at ``pos``."""
    try:
        return constructor(*args)
    except (ValueError, OverflowError, PointMismatchError) as exc:
        raise DslError(str(exc), pos) from None


def _is_dist(v) -> bool:
    return isinstance(v, distributions.DISTRIBUTION_TYPES)


def _typename(v) -> str:
    if _is_dist(v):
        return "a distribution"
    if isinstance(v, ThickTestFunction):
        return "a test function"
    if isinstance(v, Multiplier):
        return "a multiplier"
    return "a number"


# -- printer ---------------------------------------------------------------------


def print_multiplier(m: Multiplier) -> str:
    if m.is_zero():
        return "0 * H(x)"
    (_, order, pair), = m.body.terms  # one term, with no plateau factor
    if order == 0 and pair == SpherePair(1, 0):
        return "H(x)"
    if pair == parity_pair(1, order):
        return f"x^{order}"
    return f"mult(pair({pair.plus},{pair.minus}), {order})"


def print_distribution(d) -> str:
    if isinstance(d, ThickDelta):
        w = d.weights
        if w == SpherePair(1, 1) and d.degree == 0:
            return "dstar"
        if w.plus + w.minus == 2 and 0 <= w.plus <= 2:  # glambda(lam), 0 <= lam <= 1
            return f"glambda({ratio(w.plus, 2)})·delta[{d.degree}]"
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
            return "0 * dstar"  # a bare 0 would read back as a number
        out = ""
        for coefficient, term in d.terms:
            text = print_distribution(term)
            # a one-term combination written bare would read back as its term
            scaled = abs(coefficient) != 1 or (len(d.terms) == 1 and coefficient == 1)
            # and a leading number or '-' would scale a product's multiplier
            if isinstance(term, MultiplierProduct) and (scaled or coefficient < 0):
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


class Query(FrozenRecord):
    __slots__ = ("command", "source", "dist", "testfn", "derivatives", "max_order", "suite")

    def __init__(self, command: str, source: str, dist: object = None,
                 testfn: Optional[ThickTestFunction] = None, derivatives: int = 0,
                 max_order: Optional[int] = None, suite: Optional[str] = None):
        object.__setattr__(self, "command", command)  # eval | derive | project | expand | check
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "testfn", testfn)
        # an eval pairs d*^k dist with testfn, times (-1)^k
        object.__setattr__(self, "derivatives", derivatives)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "suite", suite)


class Program(Record):
    __slots__ = ("bindings", "queries")

    def __init__(self, bindings: dict, queries: List[Query]):
        self.bindings = bindings
        self.queries = queries


class Report(Record):
    """The per-query records of a run, which the exit status is read off."""

    __slots__ = ("records",)

    def __init__(self, records: List[dict]):
        self.records = records

    @property
    def exit_status(self) -> int:
        """3 when a record holds an error, else 1 when a check failed, else 0."""
        if any("error" in rec for rec in self.records):
            return 3
        if any(rec.get("passed") is False for rec in self.records):
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
                rec["outcomes"] = checks.run_suite(q.suite, cfg)
                rec["suite"] = q.suite
                rec["passed"] = all(o["passed"] for o in rec["outcomes"])
        except ThickCalcError as exc:
            rec["error"] = str(exc)
        report.records.append(rec)
    return report


_COMMANDS = ("eval", "derive", "project", "expand", "check", "let")


def parse_program(text: str) -> Program:
    """The statements of a program, one a line.  A ``DslError`` names the
    line it was found on (``line``, from 1), and its position counts from the
    start of that line."""
    return _parse_statements(enumerate(
        (line.split("#", 1)[0].rstrip() for line in text.splitlines()), 1))


def parse_query(text: str) -> Program:
    """A single statement, e.g. handed to the CLI with -e."""
    return _parse_statements([(None, text.strip())])


def _parse_statements(lines) -> Program:
    """The program of the (line number, statement text) pairs ``lines``."""
    parser = Parser()
    queries: List[Query] = []
    for number, line in lines:
        if line:
            try:
                query = parser._parse_statement(line)
            except DslError as exc:
                exc.line = number
                raise
            if query is not None:
                queries.append(query)
    return Program(parser.bindings, queries)
