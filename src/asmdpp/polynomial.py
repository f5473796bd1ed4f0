"""Exact sparse multivariate polynomial arithmetic over the integers.

A polynomial is a mapping from exponent vectors to nonzero integer
coefficients:

    x^2*y + 3  ->  {(2, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0): 3}

``MultiPoly(terms)`` is the one constructor: it takes that mapping or
(exponents, coefficient) pairs, such as a JSON term list, validates
every term and sums repeated exponents.  A tally of objects by their
statistics is therefore ``MultiPoly(Counter(...))``, and ``marginal``
counts them by one statistic.

Internally each exponent vector is packed into one int, a fixed-width
field per variable, so multiplying two monomials is one int addition;
``terms``, ``items`` and the printing methods unpack to tuples.  An
exponent past ``MAX_EXPONENT`` raises ``ResourceLimitError``.  The
representation is canonical (zero coefficients are never stored), so
``==`` is exact identity of polynomials.  Coefficients are Python ints,
which are arbitrary precision.  Evaluation at a rational point sums int
terms over one common denominator, prod b_i^D_i for coordinates a_i/b_i
and degrees D_i, and returns one reduced ``Fraction``.

``MultiPoly._step_sum`` sums step weights over the walks of an acyclic
graph; each brute-force generating function is one call of it.

The ring is Z[x, y, z, w, q], with the variable order fixed as
(x, y, z, w, q): every polynomial has five exponents, and a module that
only needs some of the variables leaves the others at 0, so equality
tests work directly across modules.  An exponent tuple or an evaluation
point that does not have five entries raises ``ValueError``.

``OmegaPoly`` adjoins a formal element omega of degree at most 2 over
``MultiPoly``; the only quadratic that matters here is

    y*omega^2 + (1 - x - y)*omega + x = 0,

and ``omega_congruent_zero`` tests divisibility by it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ResourceLimitError
from .limits import EXPONENT_FIELD_BITS as FIELD_BITS

NVARS = 5
VAR_NAMES = ("x", "y", "z", "w", "q")
X_IDX, Y_IDX, Z_IDX, W_IDX, Q_IDX = range(NVARS)


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the lattice-path conventions.

    C(a, 0) = 1 for every a (this realizes the phantom-path case C(-1, 0) = 1),
    C(a, b) = 0 whenever b < 0, b > a or a < 0 with b > 0.
    """
    if b == 0:
        return 1
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


# Packed exponent vectors (Monagan & Pearce, CASC 2007): the exponent of
# variable i is the FIELD_BITS-wide field at bit _SHIFTS[i] of one int
# key.  The top bit of each field is a guard bit (set in _GUARD) that is
# always clear in a stored key, so adding two keys adds the exponent
# vectors without a carry between fields, and a set guard bit in a sum
# marks an exponent past MAX_EXPONENT.  Variable 0 sits in the highest
# field, so the int order of keys is the lexicographic order of the
# exponent tuples, a monomial order.
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_SHIFTS = tuple(FIELD_BITS * (NVARS - 1 - i) for i in range(NVARS))
_GUARD = sum((MAX_EXPONENT + 1) << s for s in _SHIFTS)


def _pack(exp: tuple) -> int:
    key = 0
    for e in exp:
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int) -> tuple:
    return tuple((key >> s) & FIELD_MASK for s in _SHIFTS)


def _check_fields(terms: dict[int, int]) -> None:
    """Raise if a key of ``terms`` has an exponent past MAX_EXPONENT."""
    if reduce(or_, terms, 0) & _GUARD:
        raise ResourceLimitError(
            f"an exponent exceeds the packed-field limit {MAX_EXPONENT}"
        )


def _numerators(term_dicts: Sequence[dict[int, int]], point: Sequence) -> tuple[list[int], int]:
    """The values of packed polynomials at a point, as int numerators over
    one common denominator.  With coordinate i equal to a_i/b_i and D_i
    the highest exponent of variable i in any of them, each term
    c * prod a_i^e_i * b_i^(D_i - e_i) is an int over prod b_i^D_i; the
    factor tables are built once per call."""
    if len(point) != NVARS:
        raise ValueError(f"point {tuple(point)} does not have {NVARS} coordinates")
    den = 1
    tables = []
    present = reduce(or_, chain.from_iterable(term_dicts), 0)
    for shift, p in zip(_SHIFTS, point):
        if (present >> shift) & FIELD_MASK:
            top = max((k >> shift) & FIELD_MASK for d in term_dicts for k in d)
            p = Fraction(p)
            a, b = p.numerator, p.denominator
            tables.append((shift, [a**e * b ** (top - e) for e in range(top + 1)]))
            den *= b**top
    nums = []
    for terms in term_dicts:
        num = 0
        for key, coeff in terms.items():
            for shift, table in tables:
                coeff *= table[(key >> shift) & FIELD_MASK]
            num += coeff
        nums.append(num)
    return nums, den


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients.

    ``_terms`` maps packed exponent keys to coefficients; ``terms``,
    ``items`` and the printing methods unpack them to exponent tuples.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | Iterable[tuple[Sequence[int], int]] = ()):
        """Build from a mapping of exponent tuples to coefficients or from
        (exponents, coefficient) pairs, such as a Counter of statistic
        tuples or a JSON term list; repeated exponents are summed and
        terms that cancel are dropped."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        clean: dict[int, int] = {}
        for exp, coeff in terms:
            exp = tuple(exp)
            if len(exp) != NVARS:
                raise ValueError(f"exponent {exp} does not have {NVARS} entries")
            if any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValueError(f"exponents must be nonnegative ints, got {exp}")
            if not isinstance(coeff, int):
                raise ValueError("coefficients must be ints")
            if max(exp, default=0) > MAX_EXPONENT:
                raise ResourceLimitError(
                    f"exponent {exp} exceeds the packed-field limit {MAX_EXPONENT}"
                )
            if coeff:
                key = _pack(exp)
                clean[key] = clean.get(key, 0) + coeff
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "MultiPoly":
        # internal constructor: terms must already be packed and canonical
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple, int]:
        return MappingProxyType(dict(self.items()))

    def items(self) -> Iterator[tuple[tuple, int]]:
        return ((_unpack(k), c) for k, c in self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = out.get(exp, 0) + coeff
            if new:
                out[exp] = new
            elif exp in out:
                del out[exp]
        return MultiPoly._raw(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    @classmethod
    def _sum_of_products(cls, products: Iterable) -> "MultiPoly":
        """Sum of ``sign * a * b`` over the ``(sign, a, b)`` triples.

        Every product accumulates into one dict; zero coefficients are
        dropped and the exponent fields checked once, at the end.
        """
        out: dict[int, int] = {}
        get = out.get
        for sign, a, b in products:
            a, b = a._terms, b._terms
            if len(a) > len(b):
                a, b = b, a
            b = b.items()
            for ea, ca in a.items():
                ca *= sign
                for eb, cb in b:
                    key = ea + eb
                    out[key] = get(key, 0) + ca * cb
        return cls._packed(out)

    @classmethod
    def _packed(cls, terms: dict[int, int]) -> "MultiPoly":
        """Internal constructor for packed terms summed outside ``__init__``:
        zero coefficients are dropped and the exponent fields checked."""
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        _check_fields(terms)
        return cls._raw(terms)

    @classmethod
    def _step_sum(cls, start, nexts: Callable, steps: Callable, final: Callable) -> "MultiPoly":
        """Sum, over every walk from ``start``, of the product of the
        packed-key weights of its steps.  ``steps(state)`` gives the
        ``(weight, next state)`` pairs of a finite acyclic graph, and
        ``nexts(state)`` the next states alone, in the same number; a walk
        may stop wherever ``final(state)`` holds.  One pass counts each
        state's readers (the steps into it) from ``nexts``, with no weight
        made; each state is then summed once and its sum dropped after its
        last reader."""
        readers = {start: 0}
        todo = [start]
        while todo:
            for nxt in nexts(todo.pop()):
                if nxt not in readers:
                    readers[nxt] = 0
                    todo.append(nxt)
                readers[nxt] += 1
        memo: dict = {}

        def visit(state) -> dict[int, int]:
            out = memo[state] = {0: 1} if final(state) else {}
            get = out.get
            for weight, nxt in steps(state):
                sub = memo.get(nxt)
                if sub is None:
                    sub = visit(nxt)
                for key, coeff in sub.items():
                    key += weight
                    out[key] = get(key, 0) + coeff
                readers[nxt] -= 1
                if not readers[nxt]:
                    del memo[nxt], readers[nxt]
            return out

        out = visit(start)
        del visit  # it refers to itself: free memo now, not at the next gc pass
        return cls._packed(out)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly._raw({})
            return MultiPoly._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return MultiPoly._sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Fraction:
        """Evaluate exactly at a point of rationals (or ints)."""
        (num,), den = _numerators((self._terms,), point)
        return Fraction(num, den)

    def substitute(self, index: int, value: int) -> "MultiPoly":
        """Set one variable to an integer constant; its exponent becomes 0."""
        if not 0 <= index < NVARS:
            raise ValueError("variable index out of range")
        shift = _SHIFTS[index]
        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            e = (key >> shift) & FIELD_MASK
            c = coeff * value**e
            if not c:
                continue
            new_key = key - (e << shift)
            tot = out.get(new_key, 0) + c
            if tot:
                out[new_key] = tot
            elif new_key in out:
                del out[new_key]
        return MultiPoly._raw(out)

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in the canonical print order.

        Graded order: ascending total degree, ties broken by descending
        lexicographic comparison of the exponent vectors (the order of
        the packed keys).
        """
        terms = [(_unpack(k), k, c) for k, c in self._terms.items()]
        terms.sort(key=lambda t: (sum(t[0]), -t[1]))
        return [(exp, c) for exp, _, c in terms]

    def to_term_list(self) -> list[list]:
        """JSON-friendly canonical form: [[exponents, coefficient], ...]."""
        return [[list(exp), coeff] for exp, coeff in self.sorted_terms()]

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)!r})"


def _monomial_str(exp: tuple) -> str:
    parts = []
    for name, e in zip(VAR_NAMES, exp):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(p: MultiPoly) -> str:
    """Canonical string form; fixtures compare these strings directly."""
    terms = p.sorted_terms()
    if not terms:
        return "0"
    pieces = []
    for pos, (exp, coeff) in enumerate(terms):
        mono = _monomial_str(exp)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if pos == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def marginal(p: MultiPoly, var: int) -> Counter[int]:
    """Sum of the coefficients of p by the exponent of variable ``var``.
    For a generating function whose coefficients count objects, this is
    the number of objects at each value of that statistic."""
    shift = _SHIFTS[var]
    out: Counter[int] = Counter()
    for key, coeff in p._terms.items():
        out[(key >> shift) & FIELD_MASK] += coeff
    return out


def monomial(coeff: int, x: int = 0, y: int = 0, z: int = 0, w: int = 0, q: int = 0) -> MultiPoly:
    """One term of the shared five-variable ring."""
    return MultiPoly({(x, y, z, w, q): coeff})


# The shared ring Z[x, y, z, w, q].
ZERO = MultiPoly()
ONE = monomial(1)
X = monomial(1, x=1)
Y = monomial(1, y=1)
Z = monomial(1, z=1)


MAX_OMEGA_DEGREE = 2


class OmegaPoly:
    """Polynomial in a formal element omega with MultiPoly coefficients.

    Degree is capped at 2: every relation built here stays at degree <= 2,
    so exceeding the cap is treated as a hard error rather than reduced.
    The zero element has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[MultiPoly]):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if len(coeffs) - 1 > MAX_OMEGA_DEGREE:
            raise ValueError(f"omega degree {len(coeffs) - 1} exceeds cap {MAX_OMEGA_DEGREE}")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("OmegaPoly is immutable")

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "OmegaPoly":
        return cls((p,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> MultiPoly:
        if d < len(self.coeffs):
            return self.coeffs[d]
        return ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @staticmethod
    def _lift(other) -> "OmegaPoly | None":
        """other as an OmegaPoly (a MultiPoly as its omega^0 coefficient), else None."""
        if isinstance(other, MultiPoly):
            return OmegaPoly.from_poly(other)
        return other if isinstance(other, OmegaPoly) else None

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "OmegaPoly":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return OmegaPoly([self.coeff(d) + other.coeff(d) for d in range(n)])

    def __neg__(self) -> "OmegaPoly":
        return OmegaPoly([-c for c in self.coeffs])

    __radd__ = __add__

    def __sub__(self, other) -> "OmegaPoly":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OmegaPoly":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return OmegaPoly([c * other for c in self.coeffs])
        if not isinstance(other, OmegaPoly):
            return NotImplemented
        return OmegaPoly._sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    @classmethod
    def _sum_of_products(cls, products: Iterable) -> "OmegaPoly":
        """Sum of ``sign * a * b`` over the ``(sign, a, b)`` triples: one
        ``MultiPoly._sum_of_products`` per power of omega."""
        by_degree: list[list] = [[] for _ in range(2 * MAX_OMEGA_DEGREE + 1)]
        for sign, a, b in products:
            for i, ai in enumerate(a.coeffs):
                for j, bj in enumerate(b.coeffs):
                    by_degree[i + j].append((sign, ai, bj))
        # the constructor raises if a power past the cap survives
        return cls([MultiPoly._sum_of_products(p) for p in by_degree])

    def substitute(self, index: int, value: int) -> "OmegaPoly":
        """Set one variable to an integer constant in every coefficient."""
        return OmegaPoly([c.substitute(index, value) for c in self.coeffs])

    def evaluate(self, point: Sequence, omega: Fraction) -> Fraction:
        """Evaluate exactly at a point and a value of omega: the omega^d
        coefficients share one denominator, and so does the sum."""
        nums, den = _numerators([c._terms for c in self.coeffs], point)
        omega = Fraction(omega)
        top, bottom = omega.numerator, omega.denominator
        last = len(nums) - 1
        num = sum(c * top**d * bottom ** (last - d) for d, c in enumerate(nums))
        return Fraction(num, den * bottom ** max(last, 0))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "OmegaPoly(0)"
        parts = [f"({poly_str(c)})*omega^{d}" for d, c in enumerate(self.coeffs)]
        return "OmegaPoly(" + " + ".join(parts) + ")"


def omega_congruent_zero(d: OmegaPoly) -> bool:
    """Test divisibility of d by y*omega^2 + (1 - x - y)*omega + x.

    Writing d = d2*omega^2 + d1*omega + d0, divisibility over the fraction
    field is equivalent to the two exact polynomial identities

        y*d0 == x*d2    and    y*d1 == (1 - x - y)*d2.
    """
    if d.degree > 2:
        raise ValueError("omega degree above 2")
    d0, d1, d2 = d.coeff(0), d.coeff(1), d.coeff(2)
    return Y * d0 == X * d2 and Y * d1 == (ONE - X - Y) * d2
