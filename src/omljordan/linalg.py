"""Exact linear algebra over the Gaussian rationals, with no floating point
and no tolerance anywhere.

A Matrix stores Gaussian integers over one common denominator, so products,
sums, equality and hashing run on Python ints; GaussScalar, a pair of
fractions.Fraction, is the form in which single values enter and leave.
Elimination runs fraction-free on rows of Gaussian integers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

ScalarLike = Union["GaussScalar", Fraction, int]


class ShapeMismatch(Exception):
    """Matrix dimensions are incompatible for the requested operation."""


class NonRationalSpectrum(Exception):
    """A characteristic polynomial does not split over the rationals."""


@dataclass(frozen=True)
class GaussScalar:
    """A complex number a + b*i with exact rational a, b."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value: ScalarLike) -> "GaussScalar":
        if isinstance(value, GaussScalar):
            return value
        return GaussScalar(Fraction(value), Fraction(0))

    def __add__(self, other: ScalarLike) -> "GaussScalar":
        o = GaussScalar.of(other)
        return GaussScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussScalar":
        o = GaussScalar.of(other)
        return GaussScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussScalar":
        return GaussScalar.of(other) - self

    def __neg__(self) -> "GaussScalar":
        return GaussScalar(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussScalar":
        o = GaussScalar.of(other)
        return GaussScalar(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussScalar":
        o = GaussScalar.of(other)
        nsq = o.re * o.re + o.im * o.im
        if nsq == 0:
            raise ZeroDivisionError("division by zero GaussScalar")
        return GaussScalar(
            (self.re * o.re + self.im * o.im) / nsq,
            (self.im * o.re - self.re * o.im) / nsq,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussScalar":
        return GaussScalar.of(other) / self

    def conj(self) -> "GaussScalar":
        return GaussScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussScalar({self.re!r}, {self.im!r})"


_F0 = Fraction(0)
ZERO = GaussScalar(_F0, _F0)
ONE = GaussScalar(Fraction(1), Fraction(0))
I = GaussScalar(Fraction(0), Fraction(1))
HALF = GaussScalar(Fraction(1, 2), Fraction(0))


def format_scalar(z: GaussScalar) -> str:
    """Canonical text form: ``a/b``, ``c/d i``, ``a/b+c/d i`` or ``a/b-c/d i``."""
    if z.im == 0:
        return str(z.re)
    imag = f"{abs(z.im)} i"
    if z.re == 0:
        return imag if z.im > 0 else f"-{imag}"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{imag}"


_RAT = r"\d+(?:/\d+)?"
_FULL_RE = re.compile(
    rf"^(?P<re>[+-]?{_RAT})(?P<im>[+-](?:{_RAT})?i)?$|^(?P<onlyim>[+-]?(?:{_RAT})?i)$"
)


def parse_scalar(text: str) -> GaussScalar:
    """Parse the canonical text form (spaces are ignored)."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty scalar")
    m = _FULL_RE.match(compact)
    if m is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    try:
        if m.group("onlyim") is not None:
            return GaussScalar(Fraction(0), _imag_fraction(m.group("onlyim")))
        re_part = Fraction(m.group("re"))
        im_part = Fraction(0)
        if m.group("im") is not None:
            im_part = _imag_fraction(m.group("im"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}")
    return GaussScalar(re_part, im_part)


def _imag_fraction(token: str) -> Fraction:
    body = token[:-1]  # strip trailing 'i'
    if body in ("", "+"):
        return Fraction(1)
    if body == "-":
        return Fraction(-1)
    return Fraction(body)


class Matrix(NamedTuple):
    """Immutable dense matrix over the Gaussian rationals, stored as
    integers: entry (i, j) is (re[k] + im[k] i) / den, k = i * ncols + j.
    The form is normal (den > 0, and gcd(den, re, im) = 1), so equal
    matrices have equal fields, and equality and hashing are the tuple's,
    on integers.  GaussScalar appears only where entries enter or leave.
    A NamedTuple because it is cheap to build; len, iteration and tuple
    repetition are not part of its interface."""

    shape: tuple[int, int]
    den: int
    re: tuple[int, ...]
    im: tuple[int, ...]

    def __deepcopy__(self, memo) -> "Matrix":
        return self  # immutable, like Fraction

    @staticmethod
    def normal(shape: tuple[int, int], den: int, re, im) -> "Matrix":
        """The matrix (re + im i) / den, for den > 0, in normal form."""
        if (g := math.gcd(den, *re, *im)) > 1:
            den, re, im = den // g, [x // g for x in re], [x // g for x in im]
        return Matrix(shape, den, tuple(re), tuple(im))

    @staticmethod
    def from_rows(rows: Iterable[Iterable[ScalarLike]]) -> "Matrix":
        data = [[GaussScalar.of(x) for x in row] for row in rows]
        if not data:
            raise ShapeMismatch("matrix needs at least one row")
        if any(len(row) != len(data[0]) for row in data):
            raise ShapeMismatch("ragged rows")
        # the least common denominator of reduced entries is normal already
        den, (re, im) = gauss_row([x for row in data for x in row])
        return Matrix((len(data), len(data[0])), den, tuple(re), tuple(im))

    @staticmethod
    def identity(n: int) -> "Matrix":
        diagonal = tuple(int(k % (n + 1) == 0) for k in range(n * n))
        return Matrix((n, n), 1, diagonal, (0,) * (n * n))

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return Matrix((n, m), 1, (0,) * (n * m), (0,) * (n * m))

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def entries(self) -> tuple[tuple[GaussScalar, ...], ...]:
        """The rows as GaussScalars."""
        flat, w = from_gauss_row((self.re, self.im), self.den), self.ncols
        return tuple(flat[k : k + w] for k in range(0, len(flat), w))

    def __getitem__(self, ij: tuple[int, int]) -> GaussScalar:
        return self.entries[ij[0]][ij[1]]

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, over the lcm of the two denominators."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        if other.is_zero():  # atoms and projections often have zero blocks
            return self
        if sign > 0 and self.is_zero():
            return other
        d = math.lcm(self.den, other.den)
        a, b = d // self.den, sign * (d // other.den)
        re = [a * x + b * y for x, y in zip(self.re, other.re)]
        im = [a * x + b * y for x, y in zip(self.im, other.im)]
        return Matrix.normal(self.shape, d, re, im)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        (n, m), (m2, w) = self.shape, other.shape
        if m != m2:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        # Skip zero factors: operands here are mostly matrix units and
        # projections, whose entries are largely zero.
        are, aim, bre, bim = self.re, self.im, other.re, other.im
        out_re, out_im = [0] * (n * w), [0] * (n * w)
        for i in range(n):
            row = i * w
            for k in range(m):
                ar, ai = are[i * m + k], aim[i * m + k]
                if not (ar or ai):
                    continue
                for j in range(w):
                    br, bi = bre[k * w + j], bim[k * w + j]
                    if br or bi:
                        out_re[row + j] += ar * br - ai * bi
                        out_im[row + j] += ar * bi + ai * br
        return Matrix.normal((n, w), self.den * other.den, out_re, out_im)

    def scale(self, factor: ScalarLike) -> "Matrix":
        d, ((a,), (b,)) = gauss_row([GaussScalar.of(factor)])
        re = [a * x - b * y for x, y in zip(self.re, self.im)]
        im = [a * y + b * x for x, y in zip(self.re, self.im)]
        return Matrix.normal(self.shape, d * self.den, re, im)

    def transpose(self) -> "Matrix":
        w = self.ncols
        re = sum((self.re[j::w] for j in range(w)), ())
        im = sum((self.im[j::w] for j in range(w)), ())
        return Matrix((w, self.nrows), self.den, re, im)

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        t = self.transpose()
        return Matrix(t.shape, t.den, t.re, tuple(-x for x in t.im))

    def trace(self) -> GaussScalar:
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of non-square matrix")
        step = self.ncols + 1
        sums = [sum(self.re[::step])], [sum(self.im[::step])]
        return from_gauss_row(sums, self.den)[0]

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def sort_key(self) -> tuple[tuple[Fraction | int, Fraction | int], ...]:
        """(re, im) per entry, row by row, as exact rationals, whole ones as
        ints (equal hash and order to the Fraction's, at less cost)."""
        d, n = self.den, len(self.re)
        parts = [Fraction(x, d) if x % d else x // d for x in self.re + self.im]
        return tuple(zip(parts[:n], parts[n:]))

    def __str__(self) -> str:
        return "; ".join(", ".join(map(format_scalar, row)) for row in self.entries)


# ---------------------------------------------------------------------------
# Fraction-free Gaussian elimination.  Vectors are tuples of GaussScalar; a
# "row matrix" is a list of such tuples.  Elimination works on each row
# scaled by the lcm of its denominators, a GaussRow of Gaussian integers;
# each new row is divided by the integer gcd of its parts, which keeps the
# entries small.  Pivots are chosen left to right, which keeps every basis
# this module returns deterministic.
# ---------------------------------------------------------------------------

Vector = tuple[GaussScalar, ...]
GaussRow = tuple[list[int], list[int]]  # real parts, imaginary parts


def gauss_row(entries: Sequence[GaussScalar]) -> tuple[int, GaussRow]:
    """(d, row) with entries = row / d and d the least positive common
    denominator."""
    d = math.lcm(
        *(x.re.denominator for x in entries), *(x.im.denominator for x in entries)
    )
    return d, (
        [x.re.numerator * (d // x.re.denominator) for x in entries],
        [x.im.numerator * (d // x.im.denominator) for x in entries],
    )


def from_gauss_row(row: GaussRow, d: int) -> Vector:
    """The vector row / d, for a positive integer d."""
    return tuple(
        GaussScalar(Fraction(u, d) if u else _F0, Fraction(v, d) if v else _F0)
        if u or v
        else ZERO
        for u, v in zip(*row)
    )


def _primitive(re: list[int], im: list[int]) -> GaussRow:
    """The row divided by the integer gcd of its parts."""
    if (g := math.gcd(*re, *im)) > 1:
        return [u // g for u in re], [v // g for v in im]
    return re, im


def _cancel(pivot_row: GaussRow, c: int, row: GaussRow) -> GaussRow:
    """p*row - x*pivot_row made primitive, where p and x are the two rows'
    entries in column c divided by their common integer factor, so that
    column c of the result is zero."""
    pr, pi = pivot_row
    xr, xi = row
    a, b, e, f = pr[c], pi[c], xr[c], xi[c]
    g = math.gcd(a, b, e, f)
    a, b, e, f = a // g, b // g, e // g, f // g
    return _primitive(
        [a * u - b * v - e * s + f * t for u, v, s, t in zip(xr, xi, pr, pi)],
        [a * v + b * u - e * t - f * s for u, v, s, t in zip(xr, xi, pr, pi)],
    )


def echelon(work: list[GaussRow]) -> list[int]:
    """Forward elimination in place; returns the pivot columns.  Afterwards
    row r < len(pivots) of work leads with its entry in column pivots[r],
    and the remaining rows are zero."""
    pivots: list[int] = []
    r = 0
    for c in range(len(work[0][0]) if work else 0):
        pivot_row = next(
            (i for i in range(r, len(work)) if work[i][0][c] or work[i][1][c]),
            None,
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(r + 1, len(work)):
            if work[i][0][c] or work[i][1][c]:
                work[i] = _cancel(work[r], c, work[i])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots


def reduce_echelon(work: list[GaussRow], pivots: Sequence[int]) -> None:
    """Back substitution in place after echelon: each pivot becomes a
    positive integer and the only nonzero entry of its column, so row r is
    row r of the reduced row echelon form times work[r][0][pivots[r]]."""
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        re, im = work[r]
        a, b = re[c], im[c]
        if b or a < 0:
            # times the conjugate pivot: the pivot becomes a^2 + b^2
            work[r] = _primitive(
                [a * u + b * v for u, v in zip(re, im)],
                [a * v - b * u for u, v in zip(re, im)],
            )
        for i in range(r):
            if work[i][0][c] or work[i][1][c]:
                work[i] = _cancel(work[r], c, work[i])


def rref(rows: Sequence[Sequence[GaussScalar]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    work = [gauss_row(row)[1] for row in rows]
    pivots = echelon(work)
    reduce_echelon(work, pivots)
    return [from_gauss_row(row, row[0][c]) for row, c in zip(work, pivots)], pivots


def rank(rows: Sequence[Sequence[GaussScalar]]) -> int:
    return len(echelon([gauss_row(row)[1] for row in rows]))


def nullspace(rows: Sequence[Sequence[GaussScalar]]) -> list[Vector]:
    """Basis of the right nullspace, in the standard rref parametrization."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


def same_span(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    return rank(a) == rank(b) == rank([*a, *b])


# ---------------------------------------------------------------------------
# Characteristic polynomials and rational spectra.
# ---------------------------------------------------------------------------


def char_poly(m: Matrix) -> list[GaussScalar]:
    """Coefficients of det(xI - m), highest degree first (Faddeev-LeVerrier)."""
    n = m.nrows
    if n != m.ncols:
        raise ShapeMismatch("characteristic polynomial of non-square matrix")
    coeffs = [ONE]
    work = Matrix.zeros(n)
    ident = Matrix.identity(n)
    for k in range(1, n + 1):
        work = m @ (work + ident.scale(coeffs[-1]))
        coeffs.append(work.trace() / GaussScalar.of(-k))
    return coeffs


def rational_root_split(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All roots (with multiplicity) of a rational polynomial that splits over Q,
    ascending.  Raises NonRationalSpectrum if some factor has no rational root.
    """
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and poly[0] == 0:
        poly = poly[1:]
    roots: list[Fraction] = []
    for root in _rational_roots(poly) if len(poly) > 1 else ():
        while not (division := _poly_divmod(poly, [1, -root]))[1]:
            roots.append(root)
            poly = division[0]
    if len(poly) > 1:
        raise NonRationalSpectrum(
            f"polynomial {poly} has no rational root; only rational spectra "
            "are supported"
        )
    return roots


def _rational_roots(poly: list[Fraction]) -> list[Fraction]:
    """The distinct rational roots of poly, ascending, without enumerating
    divisors.  Let L lead the primitive integer multiple of poly's
    square-free part: a rational root's denominator divides L, and two such
    fractions differ by at least 1/L^2.  The Sturm chain counts the real
    roots in (lo, hi] as V(lo) - V(hi), also where lo or hi is a root, so
    bisection isolates each in an interval narrower than 1/(2L^2), where
    the nearest fraction with denominator at most L is the only candidate."""
    chain = _sturm_chain(poly)
    if len(chain[-1]) > 1:  # gcd(poly, poly'): divide out repeated factors
        poly = _poly_divmod(poly, chain[-1])[0]
        chain = _sturm_chain(poly)
    # Positive integer multiples have the chain's signs everywhere, and so
    # has 2^(k deg) p(n / 2^k), an integer, at a point n / 2^k.
    chain = [[int(c * math.lcm(*(x.denominator for x in p))) for c in p] for p in chain]
    lead = abs(chain[0][0]) // math.gcd(*chain[0])
    bound = 2 + max(abs(c) for c in chain[0][1:]) // abs(chain[0][0])  # Cauchy

    def changes(n: int, k: int) -> int:
        values = (
            sum(c * n ** (len(p) - 1 - i) << k * i for i, c in enumerate(p))
            for p in chain
        )
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    roots = []
    intervals = [(-bound, bound, 0, changes(-bound, 0), changes(bound, 0))]
    while intervals:
        lo, hi, k, v_lo, v_hi = intervals.pop()  # (lo / 2^k, hi / 2^k]
        count = v_lo - v_hi
        if count > 1 or (count and (hi - lo) * 2 * lead * lead >= 1 << k):
            mid, v_mid = lo + hi, changes(lo + hi, k + 1)
            intervals.append((mid, 2 * hi, k + 1, v_mid, v_hi))
            intervals.append((2 * lo, mid, k + 1, v_lo, v_mid))
        elif count:
            root = Fraction(lo + hi, 1 << (k + 1)).limit_denominator(lead)
            if lo < root * (1 << k) <= hi and not _poly_divmod(poly, [1, -root])[1]:
                roots.append(root)
    return roots


def _sturm_chain(poly: list[Fraction]) -> list[list[Fraction]]:
    """poly, poly', then Euclid's negated remainders, down to gcd(poly, poly')."""
    chain = [poly, [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]]
    while remainder := _poly_divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in remainder])
    return chain


def _poly_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder (without leading zeros) of a by b, b[0] != 0;
    coefficients highest degree first."""
    rest, quotient = list(a), []
    while len(rest) >= len(b):
        quotient.append(rest[0] / b[0])
        rest = [r - quotient[-1] * c for r, c in zip(rest[1:], b[1:])] + rest[len(b) :]
    while rest and rest[0] == 0:
        rest.pop(0)
    return quotient, rest
