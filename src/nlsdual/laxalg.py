"""2x2 lambda-Laurent matrix algebra over differential polynomials.

Provides the matrix arithmetic for Lax matrices (finite Laurent polynomials
in the spectral parameter lambda with DiffPoly entries), the structural
checks (tracelessness, sigma-conjugation symmetry, grading), and the
(lambda, mu)-bigraded 4x4 matrices in which the classical r-matrix identity
is checked, with the exact divided-difference form of
[r_12(lambda-mu), A_1 + A_2].  The tests check that form against 4x4 tensor
products built independently in tests/helpers.py.

lambda is treated as real under conjugation; all identities used here are
algebraic in lambda so this is a coefficient-level convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .ringcore import Coeff, DiffPoly, JetVar, KAPPA, _frozen_delattr, _frozen_setattr

Entry2 = tuple  # (e00, e01, e10, e11) of DiffPoly

_Z = DiffPoly.zero()


def _zeros2() -> Entry2:
    return (_Z, _Z, _Z, _Z)


def _add2(a: Entry2, b: Entry2) -> Entry2:
    return tuple(x + y for x, y in zip(a, b))


def _scale2(a: Entry2, c) -> Entry2:
    return tuple(x.scale(c) if isinstance(c, (Coeff, int, Fraction)) else x * c for x in a)


def _mul2(a: Entry2, b: Entry2) -> Entry2:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _is_zero2(a: Entry2) -> bool:
    return all(x.is_zero() for x in a)


class LaxMatrix:
    """Finite lambda-Laurent 2x2 matrix over DiffPoly.

    ``coeffs`` maps lambda-power -> 4-tuple of entries (row major).  ``xi``
    records which independent variable the associated auxiliary linear
    problem differentiates in ('x' or ('t', n)); a sum or product keeps it
    only when both operands carry the same one, and has None otherwise.
    ``level`` is the hierarchy level that the grading of the entries
    implies.  Immutable and unhashable; ``==`` compares the entries and
    ``xi``.
    """

    __slots__ = ("coeffs", "xi")
    __match_args__ = __slots__
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, coeffs: Mapping[int, Entry2], xi: object = "x"):
        clean = {p: e for p, e in coeffs.items() if not _is_zero2(e)}
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "xi", xi)

    def __reduce__(self):
        return (LaxMatrix, (self.coeffs, self.xi))

    @property
    def level(self) -> int | None:
        """The common p + scaling dimension of the nonzero entries of the
        lambda^p coefficients, or None for a zero or inhomogeneous matrix."""
        levels = {None if (d := x.scaling_dimension()) is None else p + d
                  for p, e in self.coeffs.items() for x in e if x}
        return levels.pop() if len(levels) == 1 else None

    # -- access --------------------------------------------------------------
    def lam_coeff(self, p: int) -> Entry2:
        return self.coeffs.get(p, _zeros2())

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def jets(self) -> set[JetVar]:
        out = set()
        for e in self.coeffs.values():
            for x in e:
                out.update(x.jets())
        return out

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "LaxMatrix") -> "LaxMatrix":
        acc = dict(self.coeffs)
        for p, e in other.coeffs.items():
            acc[p] = _add2(acc.get(p, _zeros2()), e)
        return LaxMatrix(acc, self.xi if self.xi == other.xi else None)

    def __neg__(self) -> "LaxMatrix":
        return LaxMatrix({p: _scale2(e, -1) for p, e in self.coeffs.items()}, self.xi)

    def __sub__(self, other: "LaxMatrix") -> "LaxMatrix":
        return self + (-other)

    def shift_lambda(self, k: int) -> "LaxMatrix":
        return LaxMatrix({p + k: e for p, e in self.coeffs.items()}, self.xi)

    def matmul(self, other: "LaxMatrix") -> "LaxMatrix":
        acc: dict[int, Entry2] = {}
        for p1, e1 in self.coeffs.items():
            for p2, e2 in other.coeffs.items():
                p = p1 + p2
                acc[p] = _add2(acc.get(p, _zeros2()), _mul2(e1, e2))
        return LaxMatrix(acc, self.xi if self.xi == other.xi else None)

    def commutator(self, other: "LaxMatrix") -> "LaxMatrix":
        return self.matmul(other) - other.matmul(self)

    def trace(self) -> dict[int, DiffPoly]:
        out = {}
        for p, e in self.coeffs.items():
            t = e[0] + e[3]
            if not t.is_zero():
                out[p] = t
        return out

    def applyfunc(self, f: Callable[[DiffPoly], DiffPoly]) -> "LaxMatrix":
        return LaxMatrix({p: tuple(f(x) for x in e) for p, e in self.coeffs.items()}, self.xi)

    def d_along(self, var) -> "LaxMatrix":
        """Total derivative of every entry along 'x' or ('t', n); see DiffPoly.d_along."""
        return self.applyfunc(lambda e: e.d_along(var))

    def substitute(self, rules) -> "LaxMatrix":
        return self.applyfunc(lambda e: e.substitute(rules))

    def diag_part(self) -> "LaxMatrix":
        return LaxMatrix({p: (e[0], _Z, _Z, e[3]) for p, e in self.coeffs.items()}, self.xi)

    def off_part(self) -> "LaxMatrix":
        return LaxMatrix({p: (_Z, e[1], e[2], _Z) for p, e in self.coeffs.items()}, self.xi)

    # -- structural checks ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaxMatrix):
            return NotImplemented
        return self.xi == other.xi and (self - other).is_zero()

    def trace_zero(self) -> bool:
        return not self.trace()

    def sigma_symmetric(self) -> bool:
        """Entrywise conjugation with lambda fixed equals sigma_1 X sigma_1,
        the kappa > 0 symmetry (Coeff.conjugate keeps sqrt(kappa) real)."""
        for a, b, c, d in self.coeffs.values():
            # sigma1 M sigma1 = [[d, c], [b, a]]
            if not all((x.conjugate() - y).is_zero() for x, y in zip((a, b, c, d), (d, c, b, a))):
                return False
        return True

    # -- io -----------------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "xi": list(self.xi) if isinstance(self.xi, tuple) else self.xi,
            "level": self.level,
            "coeffs": {str(p): [x.to_json_obj() for x in e] for p, e in sorted(self.coeffs.items())},
        }

    def __repr__(self) -> str:
        lines = [f"LaxMatrix(xi={self.xi}, level={self.level})"]
        for p, e in sorted(self.coeffs.items()):
            lines.append(f"  lam^{p}: [[{e[0]!r}, {e[1]!r}], [{e[2]!r}, {e[3]!r}]]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# tensor space (4x4) machinery
# ---------------------------------------------------------------------------

Entry4 = tuple  # 16 DiffPoly, row major


class TensorMatrix:
    """4x4 matrix over DiffPoly, bigraded in (lambda-power, mu-power).
    ``TensorMatrix()`` is the zero matrix.  Immutable and unhashable."""

    __slots__ = ("coeffs",)
    __match_args__ = __slots__
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, coeffs: Mapping[tuple[int, int], Entry4] | None = None):
        clean = {pw: e for pw, e in (coeffs or {}).items() if any(not x.is_zero() for x in e)}
        object.__setattr__(self, "coeffs", clean)

    def __reduce__(self):
        return (TensorMatrix, (self.coeffs,))

    def __repr__(self) -> str:
        return f"TensorMatrix(coeffs={self.coeffs!r})"

    def __add__(self, other: "TensorMatrix") -> "TensorMatrix":
        acc = dict(self.coeffs)
        for pw, e in other.coeffs.items():
            if pw in acc:
                acc[pw] = tuple(x + y for x, y in zip(acc[pw], e))
            else:
                acc[pw] = e
        return TensorMatrix(acc)

    def __neg__(self) -> "TensorMatrix":
        return TensorMatrix({pw: tuple(-x for x in e) for pw, e in self.coeffs.items()})

    def __sub__(self, other: "TensorMatrix") -> "TensorMatrix":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        return (self - other).is_zero()


_PERM_COL = (0, 2, 1, 3)  # column swap realising right-multiplication by P_12


def divided_difference(A: LaxMatrix) -> dict[tuple[int, int], Entry2]:
    """(A(mu) - A(lambda)) / (mu - lambda) as an exact (lambda, mu) polynomial.

    For A = sum_j A_j lambda^j this is sum_j A_j sum_{a+b=j-1} lambda^a mu^b,
    returned as a map (lambda-power, mu-power) -> 2x2 entries; no division is
    ever performed, so the result is structurally polynomial.  Two powers j
    never share a key and a LaxMatrix holds no all-zero block, so (a, b)
    maps straight to the entries of A_(a+b+1), with nothing added or
    filtered.  Raises for Laurent input with negative lambda powers.
    """
    if any(j < 0 for j in A.coeffs):
        raise ValueError("divided difference requires polynomial lambda dependence")
    return {(a, j - 1 - a): e for j, e in A.coeffs.items() for a in range(j)}


def rmatrix_bracket_rhs(A: LaxMatrix, gamma: int) -> TensorMatrix:
    """Right-hand side of the ultralocal r-matrix Poisson algebra for A.

    Computed exactly in the divided-difference product form
    gamma * kappa * ((DA x I) - (I x DA)) * P_12 with
    DA = (A(mu) - A(lambda)) / (mu - lambda); the rational pole is never
    materialised.  Every (lambda, mu)-block (a, b) of DA with a + b = j - 1
    holds the entries of A_j, so those four are scaled by gamma * kappa and
    the 16-entry block is built from them once per lambda-power j, shared
    by those j keys.
    """
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    g = Coeff.make(gamma) * KAPPA
    blocks: dict[int, Entry4] = {}
    out = {}
    for (a, b), e in divided_difference(A).items():
        j = a + b + 1
        if j not in blocks:
            e = [x.scale(g) for x in e]
            t = [_Z] * 16
            for i in range(2):
                for k in range(2):
                    row = 4 * (2 * i + k)
                    for jj in range(2):
                        # (DA x I)[(i,k),(jj,k)] - (I x DA)[(i,k),(i,jj)], columns permuted by P_12
                        t[row + _PERM_COL[2 * jj + k]] += e[2 * i + jj]
                        t[row + _PERM_COL[2 * i + jj]] -= e[2 * k + jj]
            blocks[j] = tuple(t)
        out[(a, b)] = blocks[j]
    return TensorMatrix(out)
