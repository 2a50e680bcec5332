"""LaTeX rendering of Lax matrices, for the CLI's ``--format latex``.

Only that format runs this code, so the CLI imports the module when it
renders and the other formats start without compiling it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .laxalg import LaxMatrix
from .ringcore import Coeff, DiffPoly, JetVar


def to_latex(M: LaxMatrix) -> str:
    """M as a pmatrix; each entry lists its lambda powers from the highest."""
    rows = (" & ".join(_entry_latex({p: e[2 * i + j] for p, e in M.coeffs.items()})
                       for j in range(2))
            for i in range(2))
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"


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
