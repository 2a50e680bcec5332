"""2x2 lambda-Laurent matrix algebra over differential polynomials.

Provides the matrix arithmetic for Lax matrices (finite Laurent polynomials
in the spectral parameter lambda with DiffPoly entries), the structural
checks (tracelessness, sigma-conjugation symmetry, grading) and the 4x4
tensor-space machinery used by the classical r-matrix identity, including
the exact divided-difference form of [r_12(lambda-mu), A_1 + A_2].

lambda is treated as real under conjugation; all identities used here are
algebraic in lambda so this is a coefficient-level convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .ringcore import Coeff, DiffPoly, JetVar, PSI, PSIBAR, KAPPA

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


@dataclass(frozen=True)
class LaxMatrix:
    """Finite lambda-Laurent 2x2 matrix over DiffPoly.

    ``coeffs`` maps lambda-power -> 4-tuple of entries (row major).  ``xi``
    records which independent variable the associated auxiliary linear
    problem differentiates in ('x' or ('t', n)); ``level`` is the declared
    hierarchy level when meaningful.
    """

    coeffs: Mapping[int, Entry2]
    xi: object = "x"
    level: int | None = None

    def __post_init__(self):
        clean = {p: e for p, e in self.coeffs.items() if not _is_zero2(e)}
        object.__setattr__(self, "coeffs", clean)

    # -- access --------------------------------------------------------------
    def lam_coeff(self, p: int) -> Entry2:
        return self.coeffs.get(p, _zeros2())

    def powers(self) -> list[int]:
        return sorted(self.coeffs)

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def entry_poly(self, i: int, j: int) -> dict[int, DiffPoly]:
        return {p: e[2 * i + j] for p, e in self.coeffs.items() if not e[2 * i + j].is_zero()}

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
        return LaxMatrix(acc, self.xi, self.level)

    def __neg__(self) -> "LaxMatrix":
        return LaxMatrix({p: _scale2(e, -1) for p, e in self.coeffs.items()}, self.xi, self.level)

    def __sub__(self, other: "LaxMatrix") -> "LaxMatrix":
        return self + (-other)

    def scale(self, c) -> "LaxMatrix":
        return LaxMatrix({p: _scale2(e, c) for p, e in self.coeffs.items()}, self.xi, self.level)

    def shift_lambda(self, k: int) -> "LaxMatrix":
        return LaxMatrix({p + k: e for p, e in self.coeffs.items()}, self.xi, self.level)

    def matmul(self, other: "LaxMatrix") -> "LaxMatrix":
        acc: dict[int, Entry2] = {}
        for p1, e1 in self.coeffs.items():
            for p2, e2 in other.coeffs.items():
                p = p1 + p2
                acc[p] = _add2(acc.get(p, _zeros2()), _mul2(e1, e2))
        return LaxMatrix(acc, self.xi, self.level)

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
        return LaxMatrix({p: tuple(f(x) for x in e) for p, e in self.coeffs.items()}, self.xi, self.level)

    def d_along(self, var) -> "LaxMatrix":
        """Total derivative of every entry along 'x' or ('t', n); see DiffPoly.d_along."""
        return self.applyfunc(lambda e: e.d_along(var))

    def substitute(self, rules) -> "LaxMatrix":
        return self.applyfunc(lambda e: e.substitute(rules))

    def diag_part(self) -> "LaxMatrix":
        return LaxMatrix({p: (e[0], _Z, _Z, e[3]) for p, e in self.coeffs.items()}, self.xi, self.level)

    def off_part(self) -> "LaxMatrix":
        return LaxMatrix({p: (_Z, e[1], e[2], _Z) for p, e in self.coeffs.items()}, self.xi, self.level)

    # -- structural checks ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaxMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def trace_zero(self) -> bool:
        return not self.trace()

    def sigma_symmetric(self, branch: str = "s1") -> bool:
        """Entrywise conjugation with lambda fixed equals sigma*X*sigma.

        branch 's1' is the kappa > 0 case; 's2' the kappa < 0 case.
        """
        for p, e in self.coeffs.items():
            a, b, c, d = e
            if branch == "s1":
                # sigma1 M sigma1 = [[d, c], [b, a]]
                want = (d, c, b, a)
                ok = all((x.conjugate() - y).is_zero() for x, y in zip((a, b, c, d), want))
            elif branch == "s2":
                # sigma2 M sigma2 = [[d, -c], [-b, a]]
                want = (d, -c, -b, a)
                ok = all((x.conjugate() - y).is_zero() for x, y in zip((a, b, c, d), want))
            else:
                raise ValueError(f"unknown branch {branch!r}")
            if not ok:
                return False
        return True

    def graded(self, level: int | None = None) -> bool:
        """Each lambda^j coefficient homogeneous of scaling dimension level-j."""
        lvl = self.level if level is None else level
        if lvl is None:
            raise ValueError("no level declared")
        for p, e in self.coeffs.items():
            for x in e:
                d = x.scaling_dimension()
                if x.is_zero():
                    continue
                if d is None or d != lvl - p:
                    return False
        return True

    # -- io -----------------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "xi": list(self.xi) if isinstance(self.xi, tuple) else self.xi,
            "level": self.level,
            "coeffs": {str(p): [x.to_json_obj() for x in e] for p, e in sorted(self.coeffs.items())},
        }

    def to_latex(self) -> str:
        rows = []
        for i in range(2):
            cells = []
            for j in range(2):
                cells.append(_entry_latex(self.entry_poly(i, j)))
            rows.append(" & ".join(cells))
        return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"

    def __repr__(self) -> str:
        lines = [f"LaxMatrix(xi={self.xi}, level={self.level})"]
        for p in self.powers():
            e = self.coeffs[p]
            lines.append(f"  lam^{p}: [[{e[0]!r}, {e[1]!r}], [{e[2]!r}, {e[3]!r}]]")
        return "\n".join(lines)


# -- constructors -------------------------------------------------------------


def lax_from_entries(entries: Mapping[int, Entry2], xi="x", level=None) -> LaxMatrix:
    return LaxMatrix(dict(entries), xi, level)


def sigma3(c: Coeff | int = 1) -> LaxMatrix:
    cc = c if isinstance(c, Coeff) else Coeff.make(c)
    return LaxMatrix({0: (DiffPoly.const(cc), _Z, _Z, DiffPoly.const(-cc))})


def field_matrix() -> LaxMatrix:
    """Off-diagonal matrix with psibar above and psi below the diagonal."""
    return LaxMatrix({0: (_Z, DiffPoly.var(PSIBAR), DiffPoly.var(PSI), _Z)})


def identity2() -> LaxMatrix:
    one = DiffPoly.const(1)
    return LaxMatrix({0: (one, _Z, _Z, one)})


# -- LaTeX helpers -------------------------------------------------------------


def _coeff_latex(c: Coeff) -> str:
    parts = []
    for pw, re, im in c.terms:
        if im == 0:
            num = _frac_latex(re)
        elif re == 0:
            num = ("-" if im < 0 else "") + ("i" if abs(im) == 1 else f"{_frac_latex(abs(im))} i")
        else:
            num = f"({_frac_latex(re)} {'+' if im > 0 else '-'} {_frac_latex(abs(im))} i)"
        if pw:
            kp = "\\kappa" if pw == 2 else ("\\sqrt{\\kappa}" if pw == 1 else f"\\kappa^{{{Fraction(pw,2)}}}")
            num = kp if num == "1" else ("-" + kp if num == "-1" else f"{num} {kp}")
        parts.append(num)
    return " + ".join(parts) if parts else "0"


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\tfrac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _jet_latex(v: JetVar) -> str:
    base = {"psi": "\\psi", "psibar": "\\bar\\psi"}.get(v.field, v.field)
    sub = "x" * v.dx + "".join(f"t_{n}" * k for n, k in v.dt)
    return f"{base}_{{{sub}}}" if sub else base


def _entry_latex(poly_by_pow: Mapping[int, DiffPoly]) -> str:
    parts = []
    for p in sorted(poly_by_pow, reverse=True):
        lam = "" if p == 0 else ("\\lambda" if p == 1 else f"\\lambda^{{{p}}}")
        poly = poly_by_pow[p]
        for mono in sorted(poly.terms, key=lambda m: (len(m), tuple(v.sort_key() for v in m))):
            c = poly.terms[mono]
            factors = " ".join(_jet_latex(v) for v in mono)
            cs = _coeff_latex(c)
            if cs == "1" and (factors or lam):
                cs = ""
            elif cs == "-1" and (factors or lam):
                cs = "-"
            term = " ".join(x for x in (cs, lam, factors) if x)
            if term.startswith("- "):
                term = "-" + term[2:]
            parts.append(term)
    out = ""
    for term in parts:
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


# ---------------------------------------------------------------------------
# tensor space (4x4) machinery
# ---------------------------------------------------------------------------

Entry4 = tuple  # 16 DiffPoly, row major


@dataclass(frozen=True)
class TensorMatrix:
    """4x4 matrix over DiffPoly, bigraded in (lambda-power, mu-power)."""

    coeffs: Mapping[tuple[int, int], Entry4] = field(default_factory=dict)

    def __post_init__(self):
        clean = {pw: e for pw, e in self.coeffs.items() if any(not x.is_zero() for x in e)}
        object.__setattr__(self, "coeffs", clean)

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

    def matmul(self, other: "TensorMatrix") -> "TensorMatrix":
        acc: dict[tuple[int, int], list] = {}
        for (l1, m1), e1 in self.coeffs.items():
            for (l2, m2), e2 in other.coeffs.items():
                key = (l1 + l2, m1 + m2)
                cur = acc.setdefault(key, [_Z] * 16)
                for i in range(4):
                    for j in range(4):
                        s = cur[4 * i + j]
                        for k in range(4):
                            a = e1[4 * i + k]
                            b = e2[4 * k + j]
                            if a.is_zero() or b.is_zero():
                                continue
                            s = s + a * b
                        cur[4 * i + j] = s
        return TensorMatrix({k: tuple(v) for k, v in acc.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def entries(self):
        for pw, e in sorted(self.coeffs.items()):
            for idx in range(16):
                if not e[idx].is_zero():
                    yield pw, idx // 4, idx % 4, e[idx]


def embed1(A: LaxMatrix) -> TensorMatrix:
    """A(lambda) acting on the first tensor slot: A x I."""
    out = {}
    for p, e in A.coeffs.items():
        t = [_Z] * 16
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t[4 * (2 * i + k) + (2 * j + k)] = e[2 * i + j]
        out[(p, 0)] = tuple(t)
    return TensorMatrix(out)


def embed2(A: LaxMatrix) -> TensorMatrix:
    """A(mu) acting on the second tensor slot: I x A."""
    out = {}
    for p, e in A.coeffs.items():
        t = [_Z] * 16
        for i in range(2):
            for k in range(2):
                for l in range(2):
                    t[4 * (2 * i + k) + (2 * i + l)] = e[2 * k + l]
        out[(0, p)] = tuple(t)
    return TensorMatrix(out)


def permutation() -> TensorMatrix:
    """P_12 with P(u x v) = v x u."""
    one = DiffPoly.const(1)
    t = [_Z] * 16
    for i in range(2):
        for k in range(2):
            # P[(i,k),(j,l)] = delta_il delta_kj
            t[4 * (2 * i + k) + (2 * k + i)] = one
    return TensorMatrix({(0, 0): tuple(t)})


_PERM_COL = (0, 2, 1, 3)  # column swap realising right-multiplication by P_12


def divided_difference(A: LaxMatrix) -> dict[tuple[int, int], Entry2]:
    """(A(mu) - A(lambda)) / (mu - lambda) as an exact (lambda, mu) polynomial.

    For A = sum_j A_j lambda^j this is sum_j A_j sum_{a+b=j-1} lambda^a mu^b,
    returned as a map (lambda-power, mu-power) -> 2x2 entries; no division is
    ever performed, so the result is structurally polynomial.  Raises for
    Laurent input with negative lambda powers.
    """
    out: dict[tuple[int, int], Entry2] = {}
    for j, e in A.coeffs.items():
        if j < 0:
            raise ValueError("divided difference requires polynomial lambda dependence")
        for a in range(j):
            b = j - 1 - a
            out[(a, b)] = _add2(out.get((a, b), _zeros2()), e)
    return {k: v for k, v in out.items() if not _is_zero2(v)}


def rmatrix_bracket_rhs(A: LaxMatrix, gamma: int) -> TensorMatrix:
    """Right-hand side of the ultralocal r-matrix Poisson algebra for A.

    Computed exactly in the divided-difference product form
    gamma * kappa * ((DA x I) - (I x DA)) * P_12 with
    DA = (A(mu) - A(lambda)) / (mu - lambda); the rational pole is never
    materialised.
    """
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    g = Coeff.make(gamma) * KAPPA
    out = {}
    for pw, e in divided_difference(A).items():
        t = [_Z] * 16
        for i in range(2):
            for k in range(2):
                row = 4 * (2 * i + k)
                for jj in range(2):
                    # (DA x I)[(i,k),(jj,k)] - (I x DA)[(i,k),(i,jj)], columns permuted by P_12
                    t[row + _PERM_COL[2 * jj + k]] += e[2 * i + jj]
                    t[row + _PERM_COL[2 * i + jj]] -= e[2 * k + jj]
        out[pw] = tuple(x.scale(g) for x in t)
    return TensorMatrix(out)
