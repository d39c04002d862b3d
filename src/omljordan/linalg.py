"""Exact linear algebra over the Gaussian rationals.

Everything in this package that touches matrices goes through this module.
All arithmetic is exact (fractions.Fraction under the hood); there is no
floating point and no tolerance anywhere.
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
# Gaussian elimination.  Vectors are tuples of GaussScalar; a "row matrix" is
# a list of such tuples.  rref pivots are chosen left to right, which keeps
# every basis this module returns deterministic.
# ---------------------------------------------------------------------------

Vector = tuple[GaussScalar, ...]


def rref(rows: Sequence[Sequence[GaussScalar]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    work = [list(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (i for i in range(r, len(work)) if not work[i][c].is_zero()), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rank(rows: Sequence[Sequence[GaussScalar]]) -> int:
    return len(rref(rows)[0])


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
    """All roots (with multiplicity) of a rational polynomial that splits over Q.

    Raises NonRationalSpectrum if some factor has no rational root.
    """
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and poly[0] == 0:
        poly = poly[1:]
    roots: list[Fraction] = []
    while len(poly) > 1:
        root = _find_rational_root(poly)
        if root is None:
            raise NonRationalSpectrum(
                f"polynomial {poly} has no rational root; only rational spectra "
                "are supported"
            )
        roots.append(root)
        poly = _deflate(poly, root)
    return sorted(roots)


def _find_rational_root(poly: Sequence[Fraction]) -> Fraction | None:
    if poly[-1] == 0:
        return Fraction(0)
    scale = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    lead, const = ints[0], ints[-1]
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(poly, cand) == 0:
                    return cand
    return None


def _poly_eval(poly: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in poly:
        acc = acc * x + c
    return acc


def _deflate(poly: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + root * out[-1])
    return out


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
