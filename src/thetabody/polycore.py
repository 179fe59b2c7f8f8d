"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout; nothing in this module ever
rounds.  Monomials carry a fixed variable count and are compared under a
configurable graded term order (graded reverse lexicographic by default).
Reduction is plain multivariate division against a marked reducer set; the set
must be flagged confluent for the result to be well defined.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Sequence

GREVLEX = "grevlex"
GRLEX = "grlex"
ORDERS = (GREVLEX, GRLEX)
DEFAULT_ORDER = GREVLEX


class OrderError(ValueError):
    """Unknown term-order identifier."""


class VariableMismatchError(ValueError):
    """Operands disagree on the number of variables."""


class NonConfluentError(ValueError):
    """Reduction requested against a reducer set not flagged confluent."""


def _check_order(order: str) -> None:
    if order not in ORDERS:
        raise OrderError(f"unknown term order {order!r}; expected one of {ORDERS}")


class Monomial:
    """A power product x1^e1 * ... * xn^en, stored as an exponent tuple."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps: Iterable[int]):
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exps = exps
        self.degree = sum(exps)

    @property
    def nvars(self) -> int:
        return len(self.exps)

    @classmethod
    def one(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Monomial":
        """Monomial x_{i+1} (0-based variable index)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        return cls(tuple(1 if j == i else 0 for j in range(nvars)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_same_nvars(self, other)
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def divides(self, other: "Monomial") -> bool:
        _check_same_nvars(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self.exps, other.exps))

    def evaluate(self, values: Sequence):
        out = 1
        for v, e in zip(values, self.exps):
            if e:
                out = out * v**e
        return out

    def __repr__(self) -> str:
        return f"Monomial({self.exps})"

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def _check_same_nvars(a: Monomial, b: Monomial) -> None:
    if len(a.exps) != len(b.exps):
        raise VariableMismatchError(
            f"monomials over {len(a.exps)} and {len(b.exps)} variables"
        )


def ascending_key(m: Monomial, order: str = DEFAULT_ORDER):
    """Sort key that is increasing in the given graded order."""
    _check_order(order)
    if order == GREVLEX:
        return (m.degree, tuple(-e for e in reversed(m.exps)))
    return (m.degree, m.exps)


def storage_key(m: Monomial, order: str = DEFAULT_ORDER):
    """Basis storage key: degree ascending, then decreasing within a degree."""
    _check_order(order)
    if order == GREVLEX:
        return (m.degree, tuple(reversed(m.exps)))
    return (m.degree, tuple(-e for e in m.exps))


def compare_monomials(a: Monomial, b: Monomial, order: str = DEFAULT_ORDER) -> int:
    """Total graded order refining total degree: -1, 0 or +1."""
    _check_same_nvars(a, b)
    ka, kb = ascending_key(a, order), ascending_key(b, order)
    return (ka > kb) - (ka < kb)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All monomials in nvars variables of the exact given total degree."""
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield Monomial(exps)


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) or isinstance(c, str):
        return Fraction(c)
    if isinstance(c, float):
        # exact value of the float; callers rationalize beforehand if they
        # want small denominators
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Polynomial:
    """Sparse polynomial: map from Monomial to a nonzero Fraction."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Monomial, object], nvars: int):
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            if m.nvars != nvars:
                raise VariableMismatchError(
                    f"monomial {m} has {m.nvars} variables, polynomial has {nvars}"
                )
            c = _coerce_coeff(c)
            if c != 0:
                clean[m] = c
        self.terms = clean
        self.nvars = nvars

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        return cls({Monomial.one(nvars): c}, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        return cls({Monomial.variable(i, nvars): 1}, nvars)

    @classmethod
    def from_term(cls, c, exps: Iterable[int]) -> "Polynomial":
        m = Monomial(exps)
        return cls({m: c}, m.nvars)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(((m.exps, c) for m, c in self.terms.items())))))

    def _binary(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise VariableMismatchError(
                f"polynomials over {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._binary(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out, self.nvars)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, self.nvars)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = _coerce_coeff(other)
            return Polynomial({m: v * c for m, v in self.terms.items()}, self.nvars)
        self._binary(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out, self.nvars)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def evaluate(self, values: Sequence):
        """Evaluate at a point; exact when all values are Fractions/ints."""
        if len(values) != self.nvars:
            raise VariableMismatchError(
                f"point has {len(values)} coordinates, polynomial has {self.nvars} variables"
            )
        out = 0
        for m, c in self.terms.items():
            out = out + c * m.evaluate(values)
        return out

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def sorted_terms(self, order: str = DEFAULT_ORDER, reverse: bool = True):
        return sorted(
            self.terms.items(), key=lambda t: ascending_key(t[0], order), reverse=reverse
        )

    def leading_monomial(self, order: str = DEFAULT_ORDER) -> Monomial:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda m: ascending_key(m, order))

    def leading_coefficient(self, order: str = DEFAULT_ORDER) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r}, nvars={self.nvars})"

    def __str__(self) -> str:
        return format_polynomial(self)


def linear_polynomial(constant, coeffs: Sequence) -> Polynomial:
    """Build constant + sum_i coeffs[i] * x_{i+1}."""
    nvars = len(coeffs)
    terms: dict[Monomial, object] = {Monomial.one(nvars): constant}
    for i, c in enumerate(coeffs):
        terms[Monomial.variable(i, nvars)] = c
    return Polynomial(terms, nvars)


class ReducerSet:
    """Marked reducers for normal-form reduction.

    Each reducer carries a marked monomial, maximal in its support under the
    configured order (the leading monomial by default).  A singleton set is
    always confluent; larger sets must be asserted confluent by the caller,
    otherwise reduction refuses to run rather than return order-dependent
    results.
    """

    __slots__ = ("reducers", "marks", "order", "confluent", "nvars")

    def __init__(
        self,
        reducers: Sequence[Polynomial],
        order: str = DEFAULT_ORDER,
        marks: Sequence[Monomial] | None = None,
        confluent: bool | None = None,
    ):
        _check_order(order)
        reducers = tuple(reducers)
        if not reducers:
            raise ValueError("empty reducer set")
        if any(g.is_zero for g in reducers):
            raise ValueError("zero polynomial cannot be a reducer")
        nvars = reducers[0].nvars
        if any(g.nvars != nvars for g in reducers):
            raise VariableMismatchError("reducers disagree on variable count")
        if marks is None:
            marks = tuple(g.leading_monomial(order) for g in reducers)
        else:
            marks = tuple(marks)
            if len(marks) != len(reducers):
                raise ValueError("one mark per reducer required")
            for g, m in zip(reducers, marks):
                if m not in g.terms:
                    raise ValueError(f"marked monomial {m} not in support of {g}")
                if compare_monomials(m, g.leading_monomial(order), order) < 0:
                    raise ValueError(f"marked monomial {m} is not maximal in {g}")
        if confluent is None:
            confluent = len(reducers) == 1
        self.reducers = reducers
        self.marks = marks
        self.order = order
        self.confluent = bool(confluent)
        self.nvars = nvars


def normal_form(f: Polynomial, G: ReducerSet) -> Polynomial:
    """Remainder of f under division by G; no term divisible by a mark.

    Requires G confluent so that f - result and the result itself are
    independent of reduction choices.
    """
    if f.nvars != G.nvars:
        raise VariableMismatchError(
            f"polynomial over {f.nvars} variables, reducers over {G.nvars}"
        )
    if not G.confluent:
        raise NonConfluentError(
            "reducer set is not flagged confluent; normal forms would depend on "
            "reduction order"
        )
    order = G.order
    work = f
    while True:
        target = None
        for m in work.terms:
            if any(mark.divides(m) for mark in G.marks):
                if target is None or compare_monomials(m, target, order) > 0:
                    target = m
        if target is None:
            return work
        for g, mark in zip(G.reducers, G.marks):
            if mark.divides(target):
                c = work.terms[target] / g.terms[mark]
                quot = Polynomial({target / mark: c}, work.nvars)
                work = work - quot * g
                break


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_COEFF_RE = re.compile(r"^\d+(/\d+)?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse `c*x1^a*x2^b + ...` with integer or rational coefficients."""
    s = text.replace(" ", "")
    if not s or s == "0":
        return Polynomial.zero(nvars or 0) if nvars is not None else Polynomial.zero(0)
    pieces = _TERM_RE.findall(s)
    if "".join(pieces) != s:
        raise ValueError(f"cannot parse polynomial text {text!r}")
    raw_terms: list[tuple[Fraction, dict[int, int]]] = []
    max_var = 0
    for piece in pieces:
        sign = Fraction(1)
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sign = Fraction(-1)
            piece = piece[1:]
        if not piece:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(1)
        powers: dict[int, int] = {}
        for factor in piece.split("*"):
            if _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError(f"variable index must be >= 1 in {factor!r}")
            exp = int(m.group(2)) if m.group(2) else 1
            powers[idx - 1] = powers.get(idx - 1, 0) + exp
            max_var = max(max_var, idx)
        raw_terms.append((sign * coeff, powers))
    n = nvars if nvars is not None else max_var
    if max_var > n:
        raise VariableMismatchError(
            f"text uses x{max_var} but nvars={n} was requested"
        )
    acc: dict[Monomial, Fraction] = {}
    for coeff, powers in raw_terms:
        exps = [0] * n
        for i, e in powers.items():
            exps[i] = e
        m = Monomial(exps)
        acc[m] = acc.get(m, Fraction(0)) + coeff
    return Polynomial(acc, n)


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(f: Polynomial, order: str = DEFAULT_ORDER) -> str:
    """Canonical text form; parse_polynomial(format_polynomial(f)) == f."""
    if f.is_zero:
        return "0"
    out: list[str] = []
    for m, c in f.sorted_terms(order):
        mono = str(m)
        mag = abs(c)
        if m.degree == 0:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)
