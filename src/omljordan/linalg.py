"""Exact linear algebra over the Gaussian rationals.

Everything in this package that touches matrices goes through this module.
All arithmetic is exact: scalars are pairs of fractions.Fraction, and
elimination runs fraction-free on Gaussian integers (each row scaled by the
lcm of its denominators).  There is no floating point and no tolerance
anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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

    def sort_key(self):
        return (self.re, self.im)

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


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over GaussScalar."""

    entries: tuple[tuple[GaussScalar, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[ScalarLike]]) -> "Matrix":
        data = tuple(tuple(GaussScalar.of(x) for x in row) for row in rows)
        if not data:
            raise ShapeMismatch("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeMismatch("ragged rows")
        return Matrix(data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_rows(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return Matrix.from_rows([[ZERO] * m for _ in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> GaussScalar:
        return self.entries[ij[0]][ij[1]]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._expect_same_shape(other)
        # Operands are mostly sparse (matrix units, projections): a sum with
        # a zero term is the other term.
        return Matrix(
            tuple(
                tuple(
                    a if not (b.re or b.im) else b if not (a.re or a.im) else a + b
                    for a, b in zip(ra, rb)
                )
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._expect_same_shape(other)
        return Matrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "Matrix":
        return self.scale(GaussScalar.of(-1))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        # Accumulate real and imaginary parts as Fractions and skip zero
        # factors: operands here are mostly matrix units and projections,
        # whose entries are largely zero, and many are real.
        width = other.ncols
        rows = []
        for row in self.entries:
            acc_re = [_F0] * width
            acc_im = [_F0] * width
            for a, other_row in zip(row, other.entries):
                ar, ai = a.re, a.im
                if not ar and not ai:
                    continue
                for j, b in enumerate(other_row):
                    br, bi = b.re, b.im
                    if ai or bi:
                        acc_re[j] += ar * br - ai * bi
                        acc_im[j] += ar * bi + ai * br
                    elif br:
                        acc_re[j] += ar * br
            rows.append(tuple(map(GaussScalar, acc_re, acc_im)))
        return Matrix(tuple(rows))

    def scale(self, factor: ScalarLike) -> "Matrix":
        f = GaussScalar.of(factor)
        return Matrix(
            tuple(
                tuple(f * x if x.re or x.im else ZERO for x in row)
                for row in self.entries
            )
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)))

    def conjugate(self) -> "Matrix":
        return Matrix(tuple(tuple(x.conj() for x in row) for row in self.entries))

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        return self.conjugate().transpose()

    def trace(self) -> GaussScalar:
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.nrows)), ZERO)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def sort_key(self):
        return tuple(x.sort_key() for row in self.entries for x in row)

    def __str__(self) -> str:
        return "; ".join(
            ", ".join(format_scalar(x) for x in row) for row in self.entries
        )

    def _expect_same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")


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
    g = math.gcd(*re, *im)
    if g > 1:
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
    if not work:
        return pivots
    r = 0
    for c in range(len(work[0][0])):
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
    combined = [list(v) for v in a] + [list(v) for v in b]
    if not combined:
        return True
    ra = rank([list(v) for v in a]) if a else 0
    rb = rank([list(v) for v in b]) if b else 0
    return ra == rb == rank(combined)


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
