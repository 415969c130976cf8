"""Model-specification language: lexing, parsing, validation, pretty-printing.

A model is a base Bernoulli probability piped through an ordered sequence of
probability-transforming flows:

    y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+trt1) | ScRisk0(0+trt2)

Grammar (whitespace-insensitive between tokens)::

    model     := ident "=" "Ber" "(" prob ")" ("|" flow)*
    flow      := kind "(" ("0" | "1") ("+" ident)* ")"
    kind      := "ScOdds" | "ScRisk1" | "ScRisk0"
    prob      := integer "/" integer | decimal
    ident     := [A-Za-z][A-Za-z0-9_]*

``parse`` lexes the whole text with one token regex before it reads the
grammar, so a character that starts no token is reported, at its offset,
before any syntax error.  Whitespace is anything ``str.isspace`` accepts, and
integer and decimal digits are any Unicode decimal digits (regex ``\\d``).

The leading "0" or "1" inside a flow's parentheses states whether the flow's
linear predictor carries an intercept; each "+ident" appends one covariate
term.  Flow order is semantic: the engine applies flows left to right, and
reordering them generally changes the probability the model implies.

Base probabilities are kept as exact fractions so that printing and reparsing
a model is lossless.

``parse`` keeps the specs of up to ``_PARSE_CACHE_SIZE`` texts, dropping the
least recently used, so a repeated text returns the same frozen spec object
without being parsed again; a malformed text is parsed, and raises, on every
call.  Only texts of at most ``_PARSE_CACHE_MAX_CHARS`` characters are kept,
so the cache's memory is bounded too; a longer text is parsed on every call.
Each spec keeps its ``parameter_names`` and ``covariate_names`` tuples, and
each flow its own ``parameter_names`` and the same keys split into
``intercept_key`` and ``term_keys``, derived once when it is built; other
modules read parameter keys (``f2.trt1``) from these, never spell them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "FlowKind",
    "LinearPredictor",
    "Flow",
    "ModelSpec",
    "ModelSyntaxError",
    "parse",
    "pretty_print",
    "parameter_names",
    "flow_parameter_names",
    "covariate_names",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class ModelSyntaxError(ValueError):
    """Raised when a model string cannot be parsed.

    ``position`` is the 0-based character offset where the problem was
    detected; it is also embedded in the message.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class FlowKind(Enum):
    """The three probability-update rules a flow can apply."""

    SC_ODDS = "ScOdds"
    SC_RISK1 = "ScRisk1"
    SC_RISK0 = "ScRisk0"


_KIND_BY_NAME = {kind.value: kind for kind in FlowKind}


@dataclass(frozen=True)
class LinearPredictor:
    """Linear predictor of one flow: optional intercept plus covariate terms.

    ``terms`` lists covariate names in textual order; duplicates within one
    predictor are rejected.  The predictor may be empty (no intercept, no
    terms), in which case the flow's scaler is exp(0) = 1.
    """

    has_intercept: bool
    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in self.terms:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid covariate name {name!r}")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError(f"duplicate covariate in predictor: {self.terms}")


@dataclass(frozen=True)
class Flow:
    """One probability-transforming stage: a kind plus its linear predictor.

    ``position`` is the 1-based slot of the flow in its model; it determines
    the flow's parameter names (``f{position}.intercept``,
    ``f{position}.<covariate>``).  ``parameter_names`` holds them, intercept
    first, as a tuple; ``intercept_key`` is the intercept's name, or None
    when the predictor has none, and ``term_keys`` pairs each covariate
    term's parameter name with the term, ``((key, term), ...)`` in textual
    order.  All three are set once at construction and are not fields, and
    this is the only code that spells the names' format.
    """

    kind: FlowKind
    predictor: LinearPredictor
    position: int

    def __post_init__(self) -> None:
        if self.position < 1:
            raise ValueError(f"flow position must be >= 1, got {self.position}")
        prefix = f"f{self.position}."
        intercept_key = prefix + "intercept" if self.predictor.has_intercept else None
        term_keys = tuple((prefix + t, t) for t in self.predictor.terms)
        # Set now, not cached on first use: on CPython 3.11+, a write to the
        # instance's __dict__ after construction slows every later attribute read.
        object.__setattr__(self, "intercept_key", intercept_key)
        object.__setattr__(self, "term_keys", term_keys)
        keys = tuple(key for key, _ in term_keys)
        object.__setattr__(self, "parameter_names", keys if intercept_key is None else (intercept_key, *keys))


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model: outcome name, base probability, ordered flows.

    ``parameter_names`` (all parameter names, flow by flow in model order)
    and ``covariate_names`` (covariates in order of first use) are tuples,
    ``parameter_set`` and ``covariate_set`` the same names as frozensets,
    and ``base_float`` is ``float(base_prob)``; all five are set once at
    construction and are not fields, so equality, hashing and ``repr`` do
    not see them.
    """

    outcome: str
    base_prob: Fraction
    flows: tuple[Flow, ...]

    def __post_init__(self) -> None:
        if not _IDENT_RE.fullmatch(self.outcome):
            raise ValueError(f"invalid outcome name {self.outcome!r}")
        if not 0 <= self.base_prob <= 1:
            raise ValueError(f"base probability {self.base_prob} outside [0, 1]")
        for i, flow in enumerate(self.flows, start=1):
            if flow.position != i:
                raise ValueError(
                    f"flow positions must be contiguous from 1, got {flow.position} at slot {i}"
                )
        # Set now, as Flow sets its names, not cached on first use.
        names = tuple(n for flow in self.flows for n in flow.parameter_names)
        terms = tuple(dict.fromkeys(term for flow in self.flows for term in flow.predictor.terms))
        object.__setattr__(self, "parameter_names", names)
        object.__setattr__(self, "covariate_names", terms)
        object.__setattr__(self, "parameter_set", frozenset(names))
        object.__setattr__(self, "covariate_set", frozenset(terms))
        object.__setattr__(self, "base_float", float(self.base_prob))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: One token per match, whitespace and stray characters included, so that
#: ``finditer`` covers the whole text.  Punctuation tokens are their own kind.
_TOKEN_RE = re.compile(
    rf"(?P<ident>{_IDENT_RE.pattern})|(?P<number>\d+(?:\.\d+)?)|(?P<punct>[=()|+/])"
    r"|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def _convert(convert, number: str, pos: int):
    """``convert(number)``, where a number past Python's digit limit is a syntax error."""
    try:
        return convert(number)
    except ValueError:
        raise ModelSyntaxError(f"number of {len(number)} characters is too long to convert", pos) from None


#: Most texts whose specs ``parse`` keeps; the least recently used goes first.
_PARSE_CACHE_SIZE = 1024

#: Longest text whose spec ``parse`` keeps, which bounds the cache's memory
#: as well as its count; a longer text is parsed on every call.
_PARSE_CACHE_MAX_CHARS = 4096


def parse(text: str) -> ModelSpec:
    """Parse a model string into a :class:`ModelSpec`.

    Raises :class:`ModelSyntaxError` (with a character offset) on lexical
    errors, unknown flow names, malformed predictors, out-of-range base
    probabilities, and duplicate covariates within a predictor.  A repeated
    text of at most _PARSE_CACHE_MAX_CHARS characters returns the same spec
    object, from a bounded cache; specs are frozen, so callers may share them.
    """
    return _parse_cached(text) if len(text) <= _PARSE_CACHE_MAX_CHARS else _parse(text)


def _parse(text: str) -> ModelSpec:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ModelSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            tokens.append((m.group() if kind == "punct" else kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    tokens.reverse()  # so that pop() walks left to right and tokens[-1] peeks

    def take(kind: str, what: str) -> tuple[str, int]:
        found, value, pos = tokens.pop()
        if found != kind:
            shown = "end of input" if found == "eof" else repr(value)
            raise ModelSyntaxError(f"expected {what}, found {shown}", pos)
        return value, pos

    outcome, _ = take("ident", "outcome name")
    take("=", "'='")
    head, pos = take("ident", "'Ber'")
    if head != "Ber":
        raise ModelSyntaxError(f"expected 'Ber', found {head!r}", pos)
    take("(", "'('")
    num, num_pos = take("number", "probability")
    if tokens[-1][0] == "/":
        if "." in num:
            raise ModelSyntaxError("rational probability parts must be integers", num_pos)
        tokens.pop()
        den, pos = take("number", "denominator")
        if "." in den:
            raise ModelSyntaxError("rational probability parts must be integers", pos)
        den_value = _convert(int, den, pos)
        if den_value == 0:
            raise ModelSyntaxError("zero denominator in probability", pos)
        base = Fraction(_convert(int, num, num_pos), den_value)
    else:
        base = _convert(Fraction, num, num_pos)
    if not 0 <= base <= 1:
        raise ModelSyntaxError(f"base probability {base} outside [0, 1]", num_pos)
    take(")", "')'")

    flows: list[Flow] = []
    while tokens[-1][0] == "|":
        tokens.pop()
        name, pos = take("ident", "flow name")
        flow_kind = _KIND_BY_NAME.get(name)
        if flow_kind is None:
            raise ModelSyntaxError(f"unknown flow name {name!r}", pos)
        take("(", "'('")
        marker, pos = take("number", "intercept marker '0' or '1'")
        if marker not in ("0", "1"):
            raise ModelSyntaxError(f"expected intercept marker '0' or '1', found {marker!r}", pos)
        terms: list[str] = []
        while tokens[-1][0] == "+":
            tokens.pop()
            term, pos = take("ident", "covariate name")
            if term in terms:
                raise ModelSyntaxError(f"duplicate covariate {term!r} in predictor", pos)
            terms.append(term)
        take(")", "')'")
        predictor = LinearPredictor(has_intercept=marker == "1", terms=tuple(terms))
        flows.append(Flow(kind=flow_kind, predictor=predictor, position=len(flows) + 1))
    take("eof", "'|' or end of input")
    return ModelSpec(outcome=outcome, base_prob=base, flows=tuple(flows))


_parse_cached = functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)(_parse)


# ---------------------------------------------------------------------------
# Printing and name derivation
# ---------------------------------------------------------------------------


def pretty_print(spec: ModelSpec) -> str:
    """Render a spec back to canonical source text.

    The output reparses to an equal spec: fractions print as ``num/den``
    (or a bare integer when the denominator is 1) and flow predictors print
    with their ``0``/``1`` intercept marker followed by ``+covariate`` terms.
    """
    parts = [f"{spec.outcome} = Ber({spec.base_prob})"]
    for flow in spec.flows:
        marker = "1" if flow.predictor.has_intercept else "0"
        terms = "".join(f"+{t}" for t in flow.predictor.terms)
        parts.append(f"{flow.kind.value}({marker}{terms})")
    return " | ".join(parts)


def flow_parameter_names(flow: Flow) -> list[str]:
    """Parameter names owned by one flow, intercept first then terms in order, as a new list."""
    return list(flow.parameter_names)


def parameter_names(spec: ModelSpec) -> list[str]:
    """All parameter names of a spec, flow by flow in model order, as a new list."""
    return list(spec.parameter_names)


def covariate_names(spec: ModelSpec) -> list[str]:
    """Covariates referenced anywhere in the spec, in order of first use, as a new list."""
    return list(spec.covariate_names)
