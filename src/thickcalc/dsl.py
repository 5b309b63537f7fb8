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
    mult   := H(x) | x^j | mult(pair(a,b), j) | mult * mult | number * mult
            | D(mult) | bound name

Numbers are integers of at most 4,300 digits, rationals ``p/q`` of them (kept
exact, so the integer-versus-not power dispatch is intent-driven) or decimals
such as ``0.5``, ``2.5e-3`` and ``1e-05`` (always treated as non-integer).  The
name ``d`` is reserved: ``d*( ... )`` is the derivative operator.  ``let``
refuses the names that are always built-ins (``bump``, ``Pf``, ``dstar``, ...).

``Parser`` reads the token texts of one statement (``tokenize``) by index and
finds a token's position only for an error; ``Parser.parse_value`` reads all
three binding levels: ``+``/``-``, ``*``/``·`` and a unary ``-`` factor.

The printer writes the canonical text of a tree, which parses back to an equal
tree: a one-term combination keeps its coefficient (``1 * dstar``), a scaled
or negated product is parenthesized (``2 * (x^2 * dstar)``), and the zero
multiplier is ``0 * H(x)``.  An ``eval`` or ``project`` record lists the series
terms of the finite-part formula whose coefficient is not zero.

An ``eval`` whose test function is a chain ``D(...D(psi)...)`` spanning the
whole argument pairs ``(-1)^k d*^k f`` with ``psi``, so the derivatives land
on the distribution and ``psi`` is never differentiated.

Each operand of ``eval`` (``psi`` of a chain), ``project``, ``derive`` and
``expand``, and each ``let`` value, is built once per process: a later
statement with the same operand text at the same depth gets the object built
first, a test function with its expansion computed and a distribution with its
moves and its text (``Parser.parse_operand``).
"""

from __future__ import annotations

import re
from decimal import Decimal
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
from .sphere import (MAX_INT_DIGITS, FrozenRecord, Record, SpherePair, exact, number_text,
                     parity_pair, ratio)
from .testfn import (
    Multiplier,
    ThickTestFunction,
    derivative as fn_derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)

Number = Union[int, Fraction, float]
Value = Union[Number, "ThickTestFunction", "Multiplier", object]


# -- lexer ---------------------------------------------------------------------

#: One token: a name, a symbol or a number.  Its kind is read off its text: a
#: name is an identifier, a symbol is itself, a number of decimal digits only
#: (``\d`` is any Unicode decimal digit, as ``str.isdecimal`` reads it) is an
#: int, and any other number, with a fraction or an exponent, is a decimal.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[()\[\],+\-*^=/·]"
                    r"|\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)?")

#: The tokens and whitespace from the start of a text up to its first bad character.
_GOOD_RUN = re.compile(rf"(?:\s*(?:{_TOKEN.pattern}))*\s*")


def tokenize(text: str) -> List[str]:
    """The token texts of ``text``; a character that starts no token and is
    not whitespace is a DslError at its position."""
    tokens = _TOKEN.findall(text)
    # findall skips such a character, and no token holds one
    if len("".join(tokens)) != len("".join(text.split())):
        bad = _GOOD_RUN.match(text).end()
        raise DslError(f"unexpected character {text[bad]!r}", bad)
    return tokens


# -- parser --------------------------------------------------------------------

#: Deepest nesting the parser accepts; it recurses at most three frames a level.
MAX_NESTING = 100

#: Every ``name(arg, ...)`` form: the kinds of its arguments (a ``function`` is
#: a test function or a multiplier) and the constructor that ``Parser._call``
#: reads them for.  ``D`` looks ``fn_derivative`` up when it runs, so that a
#: replacement of the module attribute (a tracer, say) sees every ``D( )`` the
#: parser reads; an operand ``_OPERANDS`` hands back is not read again.
_CALLS = {
    "pair": (("number", "number"), SpherePair),
    "bump": (("number",), plateau_bump),
    "mono": (("integer", "pair", "number"), thick_monomial),
    "poly": (("list", "number"), from_polynomial),
    "mult": (("pair", "integer"), lambda pair, order: Multiplier(order, pair)),
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

#: Operands, (token texts, nesting depth) -> the distribution, test function or
#: multiplier built from them, so each is built once per process; emptied when full.
_OPERANDS: dict = {}
OPERAND_MEMO_CAP = 256
_OPERAND_TYPES = (ThickTestFunction, Multiplier) + distributions.DISTRIBUTION_TYPES


class Parser:
    """Reads statements into values and queries, one statement at a time.

    The token texts of the statement being read end in ``""``, the end of
    input, so a look ahead never runs off the list.  A rule reads them by
    index (``i`` is the next one); a token's position in the text is found
    only for an error.  ``bindings`` holds the ``let`` names from one
    statement to the next."""

    def __init__(self, bindings=None):
        self.bindings = dict(bindings or {})

    def start(self, text: str):
        """Read the tokens of ``text`` from the first one on."""
        self.text = text
        self.tokens = tokenize(text)
        self.tokens.append("")
        self.i = 0
        self.depth = -1  # nesting level of the factor being parsed; 0 is outermost
        self.warned = False  # whether a glambda read since parse_operand began warned

    def position(self, i: int) -> int:
        """Where token ``i`` starts in the text; the end of input is at its length."""
        return ([m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)])[i]

    def error(self, message: str, i: int) -> DslError:
        return DslError(message, self.position(i))

    def expected(self, what: str) -> DslError:
        """The error for a next token that is not ``what``."""
        got = repr(self.tokens[self.i]) if self.tokens[self.i] else "'end of input'"
        return self.error(f"expected {what!r}, got {got}", self.i)

    def expect(self, *words: str):
        """Step past the next tokens, which must read ``words``."""
        for word in words:
            if self.tokens[self.i] != word:
                raise self.expected(word)
            self.i += 1

    def expect_end(self):
        """Check that every token has been read."""
        if self.tokens[self.i]:
            raise self.error(f"unexpected trailing input {self.tokens[self.i]!r}", self.i)

    # numbers ------------------------------------------------------------

    def parse_number(self, integer: bool = False) -> Number:
        """A number after its signs; with ``integer``, an int after its ``-`` signs."""
        tokens, i = self.tokens, self.i
        sign = 1
        while tokens[i] == "-" or (tokens[i] == "+" and not integer):
            if tokens[i] == "-":
                sign = -sign
            i += 1
        self.i = i + 1
        text = tokens[i]
        if text.isdecimal():
            value = sign * (int(text) if len(text) <= 640 else self._long_int(i))
            if not integer and tokens[i + 1] == "/" and tokens[i + 2].isdecimal():
                self.i = i + 3
                den = self._long_int(i + 2) if len(tokens[i + 2]) > 640 else int(tokens[i + 2])
                if den == 0:
                    raise self.error("zero denominator", i)
                return ratio(value, den)
            return value
        if text[:1].isdecimal() and not integer:
            return sign * float(text)
        self.i = i
        raise self.expected("int")

    def _long_int(self, i: int) -> int:
        """The int of token ``i``'s digits, more than 640 of them, where ``int()``
        obeys ``sys.set_int_max_str_digits`` and ``Decimal`` does not."""
        if len(self.tokens[i]) > MAX_INT_DIGITS:
            raise self.error(f"integer literal longer than {MAX_INT_DIGITS} digits", i)
        return int(Decimal(self.tokens[i]))

    def parse_pair(self) -> SpherePair:
        if self.tokens[self.i] != "pair":
            raise self.error("expected pair(a, b)", self.i)
        return self._call("pair")

    # expressions ----------------------------------------------------------

    def parse_value(self, level: int = 0) -> Value:
        """Read a value whose binary operators bind at ``level`` or tighter:
        ``+``/``-`` at 0, ``*``/``·`` at 1, and at 2 one factor, which is a
        unary ``-`` or a primary."""
        self.depth += 1  # every nesting level, by '(', an argument or a unary '-', passes here
        if self.depth > MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels", self.i)
        if self.tokens[self.i] == "-":
            op = self.i
            self.i += 1
            left = self._combine_mul(-1, self.parse_value(2), op)
        else:
            left = self._primary()
        self.depth -= 1
        while (binding := _BINDING.get(self.tokens[self.i], -1)) >= level:
            op = self.i
            self.i += 1
            right = self.parse_value(binding + 1)
            combine = self._combine_add if binding == 0 else self._combine_mul
            left = combine(left, right, op)
        return left

    def parse_operand(self) -> Value:
        """Read an operand or a ``let`` value: the tokens up to the first
        top-level ``,``, an unmatched ``)`` or the end.  One read before at the
        same depth gives the object built then.  One is kept only if it is a
        distribution, test function or multiplier read from exactly those
        tokens, none of them a ``let`` name, and gave no warning (an error
        raises before it is kept)."""
        tokens, start, end, open_ = self.tokens, self.i, self.i, 0
        while tokens[end] and (open_ or tokens[end] not in (",", ")")):
            open_ += (tokens[end] == "(") - (tokens[end] == ")")
            end += 1
        key = (tuple(tokens[start:end]), self.depth)
        if self.bindings and not self.bindings.keys().isdisjoint(key[0]):
            return self.parse_value()
        value = _OPERANDS.get(key)
        if value is None:
            self.warned = False
            value = self.parse_value()
            if self.i != end or self.warned or not isinstance(value, _OPERAND_TYPES):
                return value
            if len(_OPERANDS) >= OPERAND_MEMO_CAP:
                _OPERANDS.clear()
            _OPERANDS[key] = value
        self.i = end
        return value

    def _combine_add(self, a: Value, b: Value, op: int) -> Value:
        plus = self.tokens[op] == "+"
        if isinstance(a, (int, Fraction, float)) and isinstance(b, (int, Fraction, float)):
            return a + b if plus else a - b
        if isinstance(a, ThickTestFunction) and isinstance(b, ThickTestFunction):
            return a + b if plus else a + b.scale(-1)
        if _is_dist(a) and _is_dist(b):
            return self._build(op, LinearCombination, ((1, a), (1 if plus else -1, b)))
        raise self.error(f"cannot combine {_typename(a)} and {_typename(b)} with "
                         f"{self.tokens[op]!r}", op)

    def _combine_mul(self, a: Value, b: Value, op: int) -> Value:
        if isinstance(a, (int, Fraction, float)) and isinstance(b, (int, Fraction, float)):
            return a * b
        if isinstance(a, (int, Fraction, float)):
            if _is_dist(b):
                return LinearCombination(((self._build(op, exact, a), b),))
            if isinstance(b, (ThickTestFunction, Multiplier)):
                return self._build(op, b.scale, a)
        if isinstance(b, (int, Fraction, float)):
            return self._combine_mul(b, a, op)
        if isinstance(a, Multiplier) and _is_dist(b):
            return self._build(op, MultiplierProduct, a, b)
        if not (_is_dist(a) or _is_dist(b)):  # two functions; phi * psi is psi * phi
            return a * b
        raise self.error(f"cannot multiply {_typename(a)} by {_typename(b)}", op)

    def _primary(self) -> Value:
        tokens, i = self.tokens, self.i
        word = tokens[i]
        if word == "d" and tokens[i + 1] == "*" and tokens[i + 2] == "(":
            word = "d*"
        if word in _CALLS and word != "pair":  # pair(a, b) is an argument, not a value
            value = self._call(word)
            if word == "glambda":  # g_lambda_delta warned of a side weight outside [0, 1]
                self.warned |= not 0 <= value.weights.plus <= 2
                if tokens[self.i] in ("·", "*") and tokens[self.i + 1] == "delta":
                    self.i += 1
                    value = ThickDelta(value.weights, self._degree())
            return value
        if word[:1].isdecimal():
            return self.parse_number()
        if word == "(":
            self.i += 1
            v = self.parse_value()
            self.expect(")")
            return v
        if not word:
            raise self.error("unexpected end of expression", i)
        if not word.isidentifier():
            raise self.error(f"unexpected token {word!r}", i)
        if word == "Pf":
            self.expect("Pf", "(")
            pair, power = SpherePair(1, 0), 0
            if tokens[self.i] == "H":
                self.expect("H", "(", "x", ")")
            else:
                if tokens[self.i] == "abs":
                    self.expect("abs", "(", "x", ")")
                    pair = SpherePair(1, 1)
                elif tokens[self.i] == "pair":
                    pair = self.parse_pair()
                    self.expect("*", "r")
                else:
                    raise self.error("Pf( ) takes abs(x)^a, H(x) or pair(p,q) * r^a", self.i)
                self.expect("^")
                power = self.parse_number()
            self.expect(")")
            return self._build(i, PfDensity, pair, power)
        if word == "dstar":
            self.i += 1
            return delta_star()
        if word == "delta":
            degree = self._degree()
            self.expect("(")
            weights = self.parse_pair()
            self.expect(")")
            return ThickDelta(weights, degree)
        if word == "H" and tokens[i + 1] == "(":
            self.expect("H", "(", "x", ")")
            return heaviside_multiplier()
        if word == "x" and tokens[i + 1] == "^":
            self.i += 2
            return power_multiplier(self.parse_number(integer=True))
        if word in self.bindings:
            self.i += 1
            return self.bindings[word]
        raise self.error(f"unbound name {word!r}", i)

    def _call(self, name: str):
        """Read ``name(arg, ...)`` for a name in ``_CALLS`` and build its value;
        an argument the constructor rejects is reported at the name."""
        tokens, start = self.tokens, self.i
        self.i += 2 if name == "d*" else 1
        kinds, constructor = _CALLS[name]
        self.expect("(")
        args = []
        for kind in kinds:
            if args:
                self.expect(",")
            if kind in ("number", "integer"):
                arg = self.parse_number(kind == "integer")
            elif kind == "pair":
                arg = self.parse_pair()
            elif kind == "list":
                self.expect("[")
                arg = []
                while tokens[self.i] != "]":
                    if arg:
                        self.expect(",")
                    arg.append(self.parse_number())
                self.i += 1
            else:
                first = self.i
                arg = self.parse_value()
                if not (_is_dist(arg) if kind == "distribution"
                        else isinstance(arg, (ThickTestFunction, Multiplier))):
                    raise self.error(f"expected a {kind} argument, got {_typename(arg)}", first)
            args.append(arg)
        self.expect(")")
        return self._build(start, constructor, *args)

    def _degree(self) -> int:
        """Read ``delta[q]``."""
        self.expect("delta", "[")
        degree = self.parse_number(integer=True)
        self.expect("]")
        return degree

    def _build(self, i: int, constructor, *args):
        """Call a constructor, reporting the arguments it rejects at token ``i``."""
        try:
            return constructor(*args)
        except (ValueError, OverflowError, PointMismatchError) as exc:
            raise self.error(str(exc), i) from None

    # statements -----------------------------------------------------------

    def _parse_statement(self, line: str) -> Optional[Query]:
        """Read one statement; a ``let`` binds its name and gives no query.
        Positions count from the start of ``line``; the query's source is
        the stripped line."""
        self.start(line)
        source = line.strip()
        head = self.tokens[0]
        if head not in _COMMANDS:
            raise self.error(f"expected a statement keyword, got {head!r}", 0)
        self.i = 1
        if head == "let":
            name = self.tokens[1]
            if not name.isidentifier():
                raise self.expected("name")
            if name in _BUILTIN_NAMES:
                raise self.error(f"cannot bind {name!r}: it is a built-in name", 1)
            self.i = 2
            self.expect("=")
            value = self.parse_operand()
            self.expect_end()
            self.bindings[name] = value
            return None
        if head == "check":
            pieces = self.tokens[1:-1]
            for i, word in enumerate(pieces, 1):
                if not (word.isidentifier() or word == "-"):
                    raise self.error("check takes a suite name", i)
            return Query("check", source, suite="".join(pieces) or "all")
        first = self.parse_operand()
        if head == "derive":
            self.expect_end()
            if not _is_dist(first):
                raise self.error("derive takes a distribution", 0)
            return Query("derive", source, dist=first)
        self.expect(",")
        if head == "expand":
            order = self.parse_number(integer=True)
            self.expect_end()
            if not isinstance(first, (ThickTestFunction, Multiplier)):
                raise self.error("expand takes a test function", 0)
            return Query("expand", source, testfn=first, max_order=order)
        # eval | project
        fn, k = self._derivative_chain() if head == "eval" else (self.parse_operand(), 0)
        self.expect_end()
        if not _is_dist(first):
            raise self.error(f"{head} takes a distribution first", 0)
        if not isinstance(fn, ThickTestFunction):
            raise self.error(f"{head} takes a test function second", 0)
        return Query(head, source, dist=first, testfn=fn, derivatives=k)

    def _derivative_chain(self):
        """An eval's test-function argument as (psi, k): D(...D(psi)...) with k
        D's spanning the whole argument keeps psi undifferentiated, since
        <f, D^k psi> = (-1)^k <d*^k f, psi>; any other argument is (value, 0).
        psi is parsed at the nesting depth the D's give it, so that every error
        is the one the plain parse raises."""
        start = self.i
        k = 0
        while k < MAX_NESTING and self.tokens[self.i] == "D" and self.tokens[self.i + 1] == "(":
            self.i += 2
            k += 1
        if k:
            self.depth += k
            psi = self.parse_operand()
            self.depth -= k
            if isinstance(psi, ThickTestFunction) and self.tokens[self.i:] == [")"] * k + [""]:
                self.i += k
                return psi, k
            self.i = start
        return self.parse_operand(), 0


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
    if m.order == 0 and m.pair == SpherePair(1, 0):
        return "H(x)"
    if m.pair == parity_pair(1, m.order):
        return f"x^{number_text(m.order)}"
    return f"mult({_pair_text(m.pair)}, {number_text(m.order)})"


def _pair_text(p: SpherePair) -> str:
    return f"pair({number_text(p.plus)},{number_text(p.minus)})"


def print_distribution(d) -> str:
    """The canonical text of ``d``, kept in its ``_text`` slot."""
    text = getattr(d, "_text", None)
    if text is None:
        text = _canonical_text(d)
        object.__setattr__(d, "_text", text)
    return text


def _canonical_text(d) -> str:
    if isinstance(d, ThickDelta):
        w = d.weights
        if w == SpherePair(1, 1) and d.degree == 0:
            return "dstar"
        degree = number_text(d.degree)
        if w.plus + w.minus == 2 and 0 <= w.plus <= 2:  # glambda(lam), 0 <= lam <= 1
            return f"glambda({number_text(ratio(w.plus, 2))})·delta[{degree}]"
        return f"delta[{degree}]({_pair_text(w)})"
    if isinstance(d, PfDensity):
        power = number_text(d.power)
        if d.pair == SpherePair(1, 1):
            return f"Pf(abs(x)^{power})"
        if d.pair == SpherePair(1, 0) and d.power == 0:
            return "Pf(H(x))"
        return f"Pf({_pair_text(d.pair)} * r^{power})"
    if isinstance(d, Derivative):
        return f"d*({print_distribution(d.inner)})"
    if isinstance(d, MultiplierProduct):
        inner = print_distribution(d.inner)
        if isinstance(d.inner, LinearCombination):
            inner = f"({inner})"  # else its coefficient binds to our multiplier
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
                text = f"{number_text(abs(coefficient))} * {text}"
            if not out:
                out = f"-{text}" if coefficient < 0 else text
            else:
                out += f" {'-' if coefficient < 0 else '+'} {text}"
        return out
    if isinstance(d, Translate):
        return f"translate({print_distribution(d.inner)}, {number_text(d.shift)})"
    if isinstance(d, Dilate):
        return f"dilate({print_distribution(d.inner)}, {number_text(d.factor)})"
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
                for _ in range(q.derivatives):
                    target = Derivative(target)
                res = pairing.pair(target, q.testfn, cfg)
                res = res.scaled(-1) if q.derivatives % 2 else res
                rec["expr"] = print_distribution(q.dist)
                rec["value"] = float(res.value)
                if isinstance(res.value, Fraction):
                    rec["value_exact"] = number_text(res.value)
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
