"""Exact arithmetic in Z[zeta_p], the ring of integers of Q(zeta_p), p an odd prime.

An element is its tuple of integer coefficients over the power basis 1, zeta,
..., zeta^(p-2), so equal values have equal representations.  Every value
the construction builds, stores or certifies lies in this ring: the points
have integer coordinates, and the transform's entries are minors of their
Moore block.

Products use zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)), schoolbook for
one product and packed into big integers for the dot products of a matrix
product (``dot_products``).  The only division, ``exact_divider``, is of
a minor by a minor, so its quotients lie in the ring; it divides by the
divisor's integer norm and raises on a remainder.  Ring operations cost
O(p^2) integer operations, hence the bound ``MAX_CONDUCTOR`` on p.

The automorphism group over Q is cyclic of order m = p - 1.  The generator
used throughout this package sends zeta to zeta^g, where g is the smallest
primitive root modulo p (smallest for reproducibility), so applying it e
times permutes basis exponents by i -> g^e * i (mod p) followed by a single
reduction step.  An element is fixed by the generator exactly when it is
rational, i.e. when all coefficients past the constant one vanish.

Fast nonzero proofs.  For the smallest prime q > 2^61 with q = 1 (mod p) the
map zeta -> omega, with omega of order p in F_q, is a ring homomorphism from
Z[zeta] onto F_q.  ``fq_rows`` maps a matrix entry-wise.  An image of full
rank proves that rank; any other image proves nothing, and the caller decides
the rank again exactly.  q and omega depend only on p, so no file records them.

All values are immutable after construction; operations are pure functions,
safe to share between threads.
"""

from __future__ import annotations

import functools
import operator
import re
from itertools import chain
from typing import Callable, Iterable, Sequence

from .supports import _is_int

# Largest accepted conductor.  One multiply takes (p-1)^2 integer products,
# 9 to 16 ms at p = 257 (13- to 61-bit coefficients) with CPython 3.11 on a
# 2-vCPU x86-64 machine, and a construction needs hundreds of them.
MAX_CONDUCTOR = 257

# Comma-joined strings that are each exactly what ``to_strings`` writes.
_INTEGRALS = re.compile(r"(?:(?:0|-?[1-9][0-9]*)/1,)*(?:0|-?[1-9][0-9]*)/1")
# Any stored coefficient: "n" or "n/d", each an optional minus sign and ASCII digits.
_COEFFICIENT = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


def _is_probable_prime(n: int) -> bool:
    # Miller-Rabin with the first twelve prime bases is exact below 3.3 * 10^24.
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _splitting_prime(p: int) -> tuple[int, tuple[int, ...]]:
    """The smallest prime q > 2^61 with q = 1 (mod p), and the powers
    omega^0, ..., omega^(p-2) of omega = a^((q-1)/p) for the smallest a >= 2
    that makes omega != 1."""
    q = 2 ** 61 + 1
    q += (1 - q) % p
    if q % 2 == 0:
        q += p
    while not _is_probable_prime(q):
        q += 2 * p
    a = 2
    while (omega := pow(a, (q - 1) // p, q)) == 1:
        a += 1
    return q, tuple(pow(omega, i, q) for i in range(p - 1))


def fq_rows(ctx: GaloisContext, rows: Sequence[Sequence[CycloElement]]) -> list[list[int]]:
    """The image in F_q (q = ``ctx.modulus``) of every entry under zeta -> omega."""
    q, powers = _splitting_prime(ctx.p)
    return [[sum(map(operator.mul, e.coeffs, powers)) % q for e in row] for row in rows]


def _smallest_primitive_root(p: int) -> int:
    # g generates (Z/p)^* iff its powers reach all p - 1 residues; with p at
    # most MAX_CONDUCTOR this direct count is cheap.
    return next(g for g in range(2, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1)


@functools.cache
def _aut_table(p: int, e: int) -> tuple[Callable[[tuple], tuple], int]:
    """For the e-th power of zeta -> zeta^g (0 < e < p - 1): a getter that
    reads, from coefficients extended by a zero at index p - 1, the source of
    each basis exponent t < p - 1, and the index whose exponent goes to p - 1.

    Exponent i goes to g^e * i mod p, so t comes from t * g^-e mod p; the
    one t whose source is p - 1 reads the zero.  Keyed by field constants
    only, at most p - 2 tables for each p <= MAX_CONDUCTOR.
    """
    back = pow(_smallest_primitive_root(p), -e, p)
    return operator.itemgetter(*[t * back % p for t in range(p - 1)]), (p - 1) * back % p


class GaloisContext:
    """Parameters of Q(zeta_p)/Q and of its ring of integers Z[zeta_p].

    Holds the odd prime conductor ``p``, the extension degree ``m = p - 1``,
    and the exponent ``g`` (smallest primitive root mod p) of the generator
    automorphism zeta -> zeta^g.  Two contexts are interchangeable iff they
    share ``p``.
    """

    __slots__ = ("p", "m", "g")

    def __init__(self, p: int) -> None:
        if not _is_int(p):
            raise ValueError(f"conductor must be an integer, got {p!r}")
        if p > MAX_CONDUCTOR:
            raise ValueError(f"conductor p={p} is above MAX_CONDUCTOR={MAX_CONDUCTOR}: "
                             "field operations cost O(p^2) exact coefficient operations")
        if p == 2 or not _is_probable_prime(p):
            raise ValueError(f"conductor must be an odd prime, got {p}")
        self.p = p
        self.m = p - 1
        self.g = _smallest_primitive_root(p)

    def __repr__(self) -> str:
        return f"GaloisContext(p={self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisContext) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GaloisContext", self.p))

    @property
    def modulus(self) -> int:
        """The prime q of the nonzero-proof map zeta -> omega in F_q."""
        return _splitting_prime(self.p)[0]

    def element(self, coeffs: Iterable[int]) -> CycloElement:
        """Element with the given integer power-basis coefficients (length m)."""
        return CycloElement(self, coeffs)

    def zero(self) -> CycloElement:
        return _element(self, (0,) * self.m)

    def one(self) -> CycloElement:
        return self.from_rational(1)

    def from_rational(self, value: int) -> CycloElement:
        """The rational integer ``value`` as an element."""
        return CycloElement(self, (value,) + (0,) * (self.m - 1))

    def to_obj(self) -> dict:
        return {"p": self.p}

    @classmethod
    def from_obj(cls, obj: dict) -> GaloisContext:
        if not isinstance(obj, dict):
            raise ValueError("a context must be a JSON object with key p")
        return cls(obj.get("p"))


def _element(ctx: GaloisContext, coeffs) -> CycloElement:
    # integer coefficients, unchecked
    el = object.__new__(CycloElement)
    el.ctx = ctx
    el.coeffs = tuple(coeffs)
    return el


def dot_products(ctx: GaloisContext, rows: Sequence[Sequence[CycloElement]],
                 cols: Sequence[Sequence[CycloElement]]) -> list[CycloElement]:
    """The dot products rows[i] . cols[j], row-major, by Kronecker substitution.

    Each element is packed into one integer, coefficient i at bit w*i, so a
    dot product is one sum of big-integer products whose w-bit digits are
    the 2p - 3 coefficients of the unreduced polynomial (von zur Gathen and
    Gerhard, Modern Computer Algebra, section 8.4).  zeta^p = 1 is applied
    in packed form: an offset of half a digit on each of the low p digits
    makes them non-negative, and then the high digits are added onto the low
    ones with one mask and one shift.  The p digits of that sum are unpacked,
    and zeta^(p-1) = -(1 + ... + zeta^(p-2)) subtracts the last one from the
    others, which also cancels the offset.

    Every pair of basis exponents lands on exactly one of the p folded
    digits, so a folded digit is a sum of at most inner * m products, the
    same bound as an unfolded one: w bits hold it with its offset, and no
    digit carries into the next.  A lone product stays schoolbook: packing it
    wins on balanced operands, but ``exact_divider`` multiplies a small minor
    by a product of m - 1 conjugates, and packing pads the small operand to
    the large one's digit width, which slows whole builds down.
    """
    m, p = ctx.m, ctx.p
    lhs = [[e.coeffs for e in vec] for vec in rows]
    rhs = [[e.coeffs for e in vec] for vec in cols]
    inner = len(rows[0]) if rows else 0
    top_l = max(map(abs, chain.from_iterable(nums for vec in lhs for nums in vec)), default=0)
    top_r = max(map(abs, chain.from_iterable(nums for vec in rhs for nums in vec)), default=0)
    # a folded coefficient is a sum of at most inner * m products, so its
    # magnitude is below half = 2^(width - 1), and adding half keeps it in
    # [0, 2^width): one digit, no carry
    width = (inner * m * top_l * top_r).bit_length() + 1
    packed_l = [[_pack(nums, width) for nums in vec] for vec in lhs]
    packed_r = [[_pack(nums, width) for nums in vec] for vec in rhs]
    half, mask = 1 << (width - 1), (1 << width) - 1
    low = (1 << (width * p)) - 1
    offset = sum(half << s for s in range(0, width * p, width))
    shifts = range(0, width * m, width)
    top = width * m
    out = []
    for row in packed_l:
        for col in packed_r:
            acc = sum(map(operator.mul, row, col)) + offset
            acc = (acc & low) + (acc >> (width * p))  # zeta^(t+p) = zeta^t
            tail = acc >> top  # the zeta^(p-1) digit, minus the basis sum
            out.append(_element(ctx, [(acc >> s & mask) - tail for s in shifts]))
    return out


def exact_divider(divisor: CycloElement) -> Callable[[Sequence[CycloElement]], list[CycloElement]]:
    """The map from values to their quotients by ``divisor``, each of which
    must lie in Z[zeta_p]; one divisor serves any number of batches.

    With c the product of the divisor's m - 1 nontrivial conjugates and
    N = divisor * c its norm, a nonzero integer, the quotient is v * c / N,
    coefficient by coefficient.  A nonzero remainder means the quotient is
    not in the ring and raises ArithmeticError; nothing is rounded.  A zero
    divisor raises ZeroDivisionError.

    c is aut(G(m-1)) for G(L) = b aut(b) ... aut^(L-1)(b), b the divisor,
    built by doubling in about 2 log2(m) products: G(2L) = G(L) aut^L(G(L))
    and G(L+1) = b aut(G(L)).
    """
    if not divisor:
        raise ZeroDivisionError("division by zero in Z[zeta_p]")
    g, length = divisor, 1  # G(length), length running up the bits of m - 1
    for bit in bin(divisor.ctx.m - 1)[3:]:
        g, length = g * g.aut(length), 2 * length
        if bit == "1":
            g, length = divisor * g.aut(1), length + 1
    conj = g.aut(1)
    norm = (divisor * conj).coeffs[0]  # the other coefficients are zero

    def divide(values: Sequence[CycloElement]) -> list[CycloElement]:
        pairs = [[divmod(x, norm) for x in (v * conj).coeffs] for v in values]
        if any(remainder for row in pairs for _, remainder in row):
            raise ArithmeticError(f"inexact division in Z[zeta_{divisor.ctx.p}]: "
                                  "the quotient is not in the ring")
        return [_element(divisor.ctx, [quotient for quotient, _ in row]) for row in pairs]
    return divide


def _pack(nums: Sequence[int], width: int) -> int:
    # the sum over i of nums[i] << (width * i)
    acc = 0
    for v in reversed(nums):
        acc = (acc << width) + v
    return acc


class CycloElement:
    """One value of Z[zeta_p]: its integer power-basis coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: GaloisContext, coeffs: Iterable[int]) -> None:
        nums = tuple(coeffs)
        if len(nums) != ctx.m:
            raise ValueError(f"expected {ctx.m} coefficients, got {len(nums)}")
        if not all(map(_is_int, nums)):
            raise TypeError("coefficients must be integers: elements lie in Z[zeta_p]")
        self.ctx = ctx
        self.coeffs = nums

    # -- coercion -------------------------------------------------------

    def _coerce(self, other) -> CycloElement | None:
        if isinstance(other, CycloElement):
            if other.ctx.p != self.ctx.p:
                raise ValueError(
                    f"context mismatch: p={self.ctx.p} vs p={other.ctx.p}"
                )
            return other
        if _is_int(other):
            return self.ctx.from_rational(other)
        return None

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> CycloElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _element(self.ctx, map(operator.add, self.coeffs, rhs.coeffs))

    __radd__ = __add__

    def __neg__(self) -> CycloElement:
        return _element(self.ctx, [-v for v in self.coeffs])

    def __sub__(self, other) -> CycloElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _element(self.ctx, map(operator.sub, self.coeffs, rhs.coeffs))

    def __rsub__(self, other) -> CycloElement:
        return (-self) + other

    def __mul__(self, other) -> CycloElement:
        if _is_int(other):
            return _element(self.ctx, [v * other for v in self.coeffs])
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        m, p = self.ctx.m, self.ctx.p
        raw = [0] * (2 * m - 1)
        bn = rhs.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(bn):
                    if b:
                        raw[i + j] += a * b
        # zeta^t = zeta^(t-p) for t >= p; zeta^(p-1) = zeta^m is minus the basis sum
        tail = raw[m]
        high = raw[p:] + [0, 0]
        out = [lo + hi - tail for lo, hi in zip(raw, high)]
        return _element(self.ctx, out)

    __rmul__ = __mul__

    def inverse(self) -> CycloElement:
        """The inverse in Z[zeta_p], which only a unit (norm +-1) has: zero
        raises ZeroDivisionError and any other non-unit ArithmeticError."""
        return exact_divider(self)([self.ctx.one()])[0]

    # -- automorphism -----------------------------------------------------

    def aut(self, e: int) -> CycloElement:
        """Image under the e-th power of the generator automorphism zeta -> zeta^g."""
        ctx = self.ctx
        e %= ctx.m
        if e == 0:
            return self
        sources, tail_at = _aut_table(ctx.p, e)
        nums = self.coeffs
        out = sources(nums + (0,))  # index m reads the zero of zeta^(p-1)
        tail = nums[tail_at]  # sent to zeta^(p-1) = -(1 + ... + zeta^(p-2))
        return _element(ctx, [v - tail for v in out] if tail else out)

    # -- predicates and views ---------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.ctx.p == other.ctx.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.coeffs))

    # -- serialization ------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as "n/1" strings."""
        return [f"{v}/1" for v in self.coeffs]

    @classmethod
    def from_strings(cls, ctx: GaloisContext, items: list[str]) -> CycloElement:
        """Inverse of ``to_strings``.  A coefficient is read only as "n" or
        "n/d", n and d each an optional minus sign and ASCII digits, with d
        dividing n; anything else raises ValueError."""
        if not (isinstance(items, list) and all(isinstance(s, str) for s in items)):
            raise ValueError("an element must be a list of coefficient strings")
        if len(items) == ctx.m:
            # when the joined strings are exactly what to_strings writes,
            # int() reads each n at once
            text = ",".join(items)
            if _INTEGRALS.fullmatch(text):
                nums = text[:-2].split("/1,")
                if len(nums) == ctx.m:  # no string held a comma of its own
                    return _element(ctx, list(map(int, nums)))
        nums = []
        for s in items:
            match = _COEFFICIENT.fullmatch(s)
            n, d = (int(match[1]), int(match[2] or 1)) if match else (1, 0)
            if not d or n % d:  # a long string is shown by its first 40 characters
                raise ValueError(f"coefficient {s[:40]!r} is not an integer n or n/d "
                                 "with d dividing n")
            nums.append(n // d)
        return cls(ctx, nums)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"CycloElement(p={self.ctx.p}, {self})"
