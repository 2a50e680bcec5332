"""Exact differential-polynomial algebra over jet variables.

The ring elements are polynomials in commuting jet variables (a field name
together with an x-derivative order and t_n-derivative orders), with
coefficients that are Gaussian rationals times integer powers of sqrt(kappa).
Everything is exact; no floating point enters this module.  Values are
immutable after construction, so they can be shared freely.

Jet variables are interned: constructing a jet equal to an existing one
returns that same object, so jet equality and hashing are object identity.
The Euler operators sum over the prolongations actually present in their
input, so their loops are bounded by the input's jets and cut nothing off.

Sums of products have a one-pass kernel, :meth:`DiffPoly.dot`, which adds
each term product into a pair of Fractions instead of building a Coeff for
it.  The bracket layer and the generating-function route use it.  The
product ``*``, :meth:`DiffPoly.sum` and the recursion route (W, the Neumann
series, the densities) still build one Coeff per product: they are what
``gen-v``, ``gen-dual``, ``charges`` and ``verify-zc`` run, and the
benchmark's host-speed sampler takes no sample from a command that finishes
before its first tick (ROADMAP item 1(a)), so they move onto the kernel
once it does.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping

# ---------------------------------------------------------------------------
# coefficients: Laurent polynomials in sqrt(kappa) over the Gaussian rationals
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Coeff:
    """Sum of terms (re + i*im) * sqrt(kappa)**p with exact rational re, im.

    Stored as a sorted tuple of (p, re, im); zero terms are never kept.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[int, tuple[Fraction, Fraction]] | None = None):
        items = []
        if terms:
            for pw, (re, im) in terms.items():
                if re or im:
                    items.append((pw, re, im))
        items.sort()
        object.__setattr__(self, "terms", tuple(items))
        object.__setattr__(self, "_hash", hash(self.terms))

    @staticmethod
    def _of(terms: tuple) -> "Coeff":
        """Wrap a sorted tuple of (p, re, im) with no zero term (no checks)."""
        c = object.__new__(Coeff)
        object.__setattr__(c, "terms", terms)
        object.__setattr__(c, "_hash", hash(terms))
        return c

    # -- constructors ------------------------------------------------------
    @staticmethod
    def make(re=0, im=0) -> "Coeff":
        """Coefficient re + i*im; SQRT_KAPPA and KAPPA carry the powers of sqrt(kappa)."""
        return Coeff({0: (_frac(re), _frac(im))})

    @staticmethod
    def zero() -> "Coeff":
        return _ZERO

    @staticmethod
    def one() -> "Coeff":
        return _ONE

    @staticmethod
    def i() -> "Coeff":
        return _I

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Coeff") -> "Coeff":
        acc = {pw: (re, im) for pw, re, im in self.terms}
        for pw, re, im in other.terms:
            r0, i0 = acc.get(pw, (Fraction(0), Fraction(0)))
            acc[pw] = (r0 + re, i0 + im)
        return Coeff(acc)

    def __neg__(self) -> "Coeff":
        return Coeff({pw: (-re, -im) for pw, re, im in self.terms})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        acc: dict[int, tuple[Fraction, Fraction]] = {}
        for p1, r1, i1 in self.terms:
            for p2, r2, i2 in other.terms:
                pw = p1 + p2
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                r0, i0 = acc.get(pw, (Fraction(0), Fraction(0)))
                acc[pw] = (r0 + re, i0 + im)
        return Coeff(acc)

    def conjugate(self) -> "Coeff":
        """Complex conjugation; sqrt(kappa) is real and stays put."""
        return Coeff({pw: (re, -im) for pw, re, im in self.terms})

    def inverse(self) -> "Coeff":
        """Exact inverse.  Only single-term coefficients are invertible here."""
        if len(self.terms) != 1:
            raise ArithmeticError(f"coefficient not invertible in this ring: {self}")
        pw, re, im = self.terms[0]
        n = re * re + im * im
        return Coeff({-pw: (re / n, -im / n)})

    # -- numerics / io -----------------------------------------------------
    def to_complex(self, kappa: float) -> complex:
        """Evaluate with a concrete kappa > 0 (sqrt taken positive)."""
        sk = kappa ** 0.5
        return sum((float(re) + 1j * float(im)) * sk**pw for pw, re, im in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for pw, re, im in self.terms:
            if im == 0:
                num = str(re)
            elif re == 0:
                if im == 1:
                    num = "i"
                elif im == -1:
                    num = "-i"
                else:
                    num = f"({im})i"
            else:
                num = f"({re}{'+' if im > 0 else '-'}({abs(im)})i)"
            if pw == 0:
                parts.append(num)
            else:
                kp = "k" if pw == 2 else ("sqrt(k)" if pw == 1 else f"k^({Fraction(pw, 2)})")
                parts.append(f"{num}*{kp}" if num != "1" else kp)
        return " + ".join(parts)


_F0 = Fraction(0)
_ZERO = Coeff()
_ONE = Coeff({0: (Fraction(1), Fraction(0))})
_I = Coeff({0: (Fraction(0), Fraction(1))})
SQRT_KAPPA = Coeff({1: (Fraction(1), Fraction(0))})
KAPPA = Coeff({2: (Fraction(1), Fraction(0))})

# fields that are complex conjugates of each other
_CONJ_PAIRS = {"psi": "psibar", "psibar": "psi"}
_FIELD_RANK = {"psi": 0, "psibar": 1}


# __setattr__ and __delattr__ of the immutable slotted classes (JetVar here,
# LaxMatrix and TensorMatrix in laxalg, WSeries in hierarchy); their
# constructors write through object.__setattr__
def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# jet variables
# ---------------------------------------------------------------------------


class JetVar:
    """A jet variable: derivative of a field, treated as a coordinate.

    ``dt`` maps hierarchy level n to the t_n-derivative order and is stored as
    a sorted tuple of (level, order) pairs with no zero orders.

    Jets are interned: constructing a jet equal to an existing one returns
    that same object, so ``==`` and ``hash`` are object identity.  Jets are
    ordered by :meth:`sort_key`; ``<`` between jets is not defined.
    """

    __slots__ = ("field", "dx", "dt", "_key")

    def __new__(cls, field: str, dx: int = 0, dt: tuple[tuple[int, int], ...] = ()):
        try:
            return _JET_POOL[field, dx, dt]
        except (KeyError, TypeError):
            pass
        if dx < 0:
            raise ValueError("negative x-derivative order")
        dt = tuple(sorted(tuple(p) for p in dt))
        for lvl, ordr in dt:
            if lvl < 0 or ordr <= 0:
                raise ValueError(f"bad t-order entry {(lvl, ordr)}")
        self = _JET_POOL.get((field, dx, dt))
        if self is None:
            self = object.__new__(cls)
            key = (_FIELD_RANK.get(field, 2), field, dx, dt)
            for name, value in zip(cls.__slots__, (field, dx, dt, key)):
                object.__setattr__(self, name, value)
            _JET_POOL[field, dx, dt] = self
        return self

    # identity, at C level: equal jets are the same object
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __reduce__(self):
        return (JetVar, (self.field, self.dx, self.dt))

    # -- basic structure ---------------------------------------------------
    def sort_key(self):
        return self._key

    def prolong_x(self) -> "JetVar":
        return JetVar(self.field, self.dx + 1, self.dt)

    def prolong_t(self, n: int) -> "JetVar":
        d = dict(self.dt)
        d[n] = d.get(n, 0) + 1
        return JetVar(self.field, self.dx, tuple(sorted(d.items())))

    def prolong_along(self, w) -> "JetVar":
        """This jet prolonged once along 'x' or ('t', n)."""
        n = _t_level(w)
        return self.prolong_x() if n is None else self.prolong_t(n)

    def prolongation_depth(self, base: "JetVar", w) -> int | None:
        """The k with base prolonged k times along w equal to this jet, else None."""
        n = _t_level(w)
        if self.field != base.field:
            return None
        if n is None:
            if self.dt == base.dt and self.dx >= base.dx:
                return self.dx - base.dx
            return None
        if self.dx != base.dx:
            return None
        mine, theirs = dict(self.dt), dict(base.dt)
        k = mine.pop(n, 0) - theirs.pop(n, 0)
        return k if k >= 0 and mine == theirs else None

    def conjugate_var(self) -> "JetVar":
        try:
            return JetVar(_CONJ_PAIRS[self.field], self.dx, self.dt)
        except KeyError:
            raise ValueError(f"no conjugate defined for field {self.field!r}")

    def dim(self) -> int:
        """Scaling dimension: 1 for the field, +1 per d_x, +n per d_{t_n}."""
        return 1 + self.dx + sum(n * k for n, k in self.dt)

    def __repr__(self) -> str:
        base = {"psi": "psi", "psibar": "psibar"}.get(self.field, self.field)
        sub = "x" * self.dx + "".join(f"t{n}" * k for n, k in self.dt)
        return f"{base}_{sub}" if sub else base


# (field, dx, dt) -> the one JetVar with that value
_JET_POOL: dict[tuple, JetVar] = {}
_jet_key = attrgetter("_key")


def _t_level(w) -> int | None:
    """None for the direction 'x', n for ('t', n); any other label raises.

    Jets exist only along x and the t_n; a dual flow label such as
    ('eta', m) names a direction with no jets in the ring.
    """
    if w == "x":
        return None
    if isinstance(w, tuple) and len(w) == 2 and w[0] == "t":
        return w[1]
    raise ValueError(f"no jet direction for flow label {w!r}")


PSI = JetVar("psi")
PSIBAR = JetVar("psibar")


# ---------------------------------------------------------------------------
# differential polynomials
# ---------------------------------------------------------------------------

Monomial = tuple  # sorted tuple of JetVar, with repetition


class DiffPoly:
    """Polynomial in jet variables with Coeff coefficients, in canonical form.

    Monomials are multisets of jets stored as tuples sorted by
    ``JetVar.sort_key``; zero coefficients are purged, so equality is plain
    dictionary comparison.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _of(terms: dict) -> "DiffPoly":
        """Wrap a dict that holds no zero coefficient (no copy, no checks)."""
        p = object.__new__(DiffPoly)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def const(c: Coeff | int | Fraction) -> "DiffPoly":
        if isinstance(c, (int, Fraction)):
            c = Coeff.make(c)
        return DiffPoly({(): c})

    @staticmethod
    def var(v: JetVar, c: Coeff | int | Fraction = 1) -> "DiffPoly":
        if isinstance(c, (int, Fraction)):
            c = Coeff.make(c)
        return DiffPoly({(v,): c})

    @staticmethod
    def monomial(vars_: Iterable[JetVar], c: Coeff | int | Fraction = 1) -> "DiffPoly":
        if isinstance(c, (int, Fraction)):
            c = Coeff.make(c)
        return DiffPoly({tuple(sorted(vars_, key=_jet_key)): c})

    @staticmethod
    def sum(polys: Iterable["DiffPoly"]) -> "DiffPoly":
        """Sum of many polynomials, accumulated in one dict."""
        acc: dict[Monomial, Coeff] = {}
        for p in polys:
            _accumulate(acc, p.terms)
        return DiffPoly(acc)

    @staticmethod
    def dot(pairs: Iterable[tuple["DiffPoly", "DiffPoly"]]) -> "DiffPoly":
        """sum_i a_i * b_i over the pairs (a_i, b_i), in one pass.

        Equal to ``DiffPoly.sum(a * b for a, b in pairs)``, result and
        canonical form alike, without a Coeff per term product: each product
        of Gaussian rationals is added straight into an accumulator of two
        Fractions per (monomial, sqrt(kappa) power), skipping the parts that
        are zero, and each result Coeff is built once at the end.  The
        rationals are exact, so the order of the additions cannot show.
        """
        acc: dict[Monomial, dict[int, list]] = {}
        for a, b in pairs:
            b_terms = b.terms.items()
            for m1, c1 in a.terms.items():
                t1 = c1.terms
                for m2, c2 in b_terms:
                    mono = tuple(sorted(m1 + m2, key=_jet_key)) if m1 and m2 else m1 + m2
                    slot = acc.get(mono)
                    if slot is None:
                        slot = acc[mono] = {}
                    for p1, r1, i1 in t1:
                        for p2, r2, i2 in c2.terms:
                            # (r1 + i i1)(r2 + i i2); a zero part is 0, not Fraction(0)
                            if i1:
                                if i2:
                                    re = r1 * r2 - i1 * i2 if r1 and r2 else -(i1 * i2)
                                    im = (r1 * i2 if r1 else 0) + (i1 * r2 if r2 else 0)
                                else:
                                    re = r1 * r2 if r1 else 0
                                    im = i1 * r2
                            else:
                                re = r1 * r2 if r2 else 0
                                im = r1 * i2 if i2 else 0
                            pw = p1 + p2
                            e = slot.get(pw)
                            if e is None:
                                slot[pw] = [re, im]
                            else:
                                if re:
                                    e[0] += re
                                if im:
                                    e[1] += im
        out = {}
        for mono, slot in acc.items():
            items = [(pw, re or _F0, im or _F0) for pw, (re, im) in slot.items() if re or im]
            if items:
                items.sort()
                out[mono] = Coeff._of(tuple(items))
        return DiffPoly._of(out)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0])))))
        return self._hash

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        _accumulate(acc, other.terms)
        return DiffPoly(acc)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, (Coeff, int, Fraction)):
            return self.scale(other)
        acc: dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2, key=_jet_key)) if m1 and m2 else m1 + m2
                c = c1 * c2
                if mono in acc:
                    acc[mono] = acc[mono] + c
                else:
                    acc[mono] = c
        return DiffPoly(acc)

    __rmul__ = __mul__

    def scale(self, c: Coeff | int | Fraction) -> "DiffPoly":
        if isinstance(c, (int, Fraction)):
            c = Coeff.make(c)
        return DiffPoly({m: cc * c for m, cc in self.terms.items()})

    # -- calculus ----------------------------------------------------------
    def diff(self, v: JetVar) -> "DiffPoly":
        """Formal partial derivative with respect to one jet variable."""
        # distinct monomials stay distinct once one v is removed, and a
        # nonzero coefficient times a positive multiplicity is nonzero
        out: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            if v not in mono:
                continue
            i = mono.index(v)
            mult = mono.count(v)
            out[mono[:i] + mono[i + 1:]] = c if mult == 1 else c * Coeff.make(mult)
        return DiffPoly._of(out)

    def _total_derivative(self, prolong) -> "DiffPoly":
        acc: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            for idx, v in enumerate(mono):
                lifted = list(mono)
                lifted[idx] = prolong(v)
                key = tuple(sorted(lifted, key=_jet_key))
                if key in acc:
                    acc[key] = acc[key] + c
                else:
                    acc[key] = c
        return DiffPoly(acc)

    def d_x(self) -> "DiffPoly":
        """Total x-derivative (Leibniz over all jets)."""
        return self._total_derivative(JetVar.prolong_x)

    def d_t(self, n: int) -> "DiffPoly":
        """Total t_n-derivative."""
        return self._total_derivative(lambda v: v.prolong_t(n))

    def d_along(self, w) -> "DiffPoly":
        """Total derivative along 'x' or ('t', n); other labels raise."""
        n = _t_level(w)
        return self.d_x() if n is None else self.d_t(n)

    def conjugate(self) -> "DiffPoly":
        """Swap psi <-> psibar jets and conjugate all coefficients."""
        acc: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            key = tuple(sorted((v.conjugate_var() for v in mono), key=_jet_key))
            acc[key] = acc.get(key, Coeff.zero()) + c.conjugate()
        return DiffPoly(acc)

    # -- structure queries --------------------------------------------------
    def jets(self) -> set[JetVar]:
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def max_x_order(self) -> int:
        return max((v.dx for v in self.jets()), default=0)

    def t_levels(self) -> set[int]:
        out = set()
        for v in self.jets():
            out.update(n for n, _ in v.dt)
        return out

    def scaling_dimension(self):
        """Common scaling dimension of all monomials, or None if inhomogeneous.

        Fields carry dimension 1, d_x adds 1, d_{t_n} adds n; sqrt(kappa) and
        numbers are dimensionless.  The zero polynomial is homogeneous of any
        dimension and reported as 0.
        """
        dims = {sum(v.dim() for v in mono) for mono in self.terms}
        if not dims:
            return 0
        if len(dims) > 1:
            return None
        return dims.pop()

    def coefficient(self, mono: Iterable[JetVar]) -> Coeff:
        return self.terms.get(tuple(sorted(mono, key=_jet_key)), Coeff.zero())

    def constant_value(self) -> Coeff | None:
        """The value of a constant polynomial (zero for 0), None otherwise."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    # -- Euler operators ---------------------------------------------------
    def euler(self, field: str) -> "DiffPoly":
        """Variational derivative in the x-direction for the given field.

        Returns sum_k (-d_x)^k d/d(field_k-jet).  Rejects input containing
        t-jets: the kernel characterisation (total x-derivatives) only makes
        sense for purely spatial densities.
        """
        for v in self.jets():
            if v.dt:
                raise ValueError("euler operator requires x-jets only")
        return self.euler_along(JetVar(field), "x")

    def euler_along(self, base: JetVar, w) -> "DiffPoly":
        """sum_k (-d_w)^k d/d(base prolonged k times along w).

        The sum runs over the prolongations of ``base`` present in the
        polynomial, so no order is ever cut off.
        """
        terms = []
        for v in self.jets():
            k = v.prolongation_depth(base, w)
            if k is None:
                continue
            term = self.diff(v)
            for _ in range(k):
                term = -term.d_along(w)
            terms.append(term)
        return DiffPoly.sum(terms)

    # -- substitution ------------------------------------------------------
    def substitute(self, rules: Mapping[JetVar, "DiffPoly"]) -> "DiffPoly":
        """Exact substitution with automatic prolongation of the rules.

        A rule for e.g. the first t_2-jet of psi induces rules for all its
        x/t-prolongations by total differentiation.  Raises on rule sets that
        do not settle within 64 passes (cyclic ones).  At levels 2-13 (both
        Dirac pipelines, the r-matrix and Hamilton checks, the evolution rules,
        and the on-shell duals on bases 2 and 3) every call settles in at most
        2 passes, one replacement and the check that nothing is left, so the
        bound leaves a margin of 62 for rule sets whose right-hand sides chain.
        """
        if not rules:
            return self
        cur = self
        for _ in range(64):
            needed = {}
            for v in cur.jets():
                if v in rules:
                    needed[v] = rules[v]
                    continue
                key = _best_rule_key(v, rules)
                if key is not None:
                    needed[v] = _prolong_rule(rules[key], key, v)
            if not needed:
                return cur
            cur = cur._replace_jets(needed)
        raise ValueError("cyclic rule set: substitution did not terminate")

    def _replace_jets(self, mapping: Mapping[JetVar, "DiffPoly"]) -> "DiffPoly":
        acc: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            # the jets that stay form a sorted sub-monomial
            piece = DiffPoly._of({tuple(v for v in mono if v not in mapping): c})
            for v in mono:
                if v in mapping:
                    piece = piece * mapping[v]
            _accumulate(acc, piece.terms)
        return DiffPoly(acc)

    # -- numerics ----------------------------------------------------------
    def evaluate(self, values: Mapping[JetVar, complex], kappa: float):
        """Numerical evaluation; jet values may be scalars or numpy arrays."""
        out = 0
        for mono, c in self.terms.items():
            acc = c.to_complex(kappa)
            for v in mono:
                acc = acc * values[v]
            out = out + acc
        return out

    # -- io / display ------------------------------------------------------
    def to_json_obj(self) -> list:
        items = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            for pw, re, im in c.terms:
                items.append({
                    "coeff": {
                        "sqrtkappa_pow": pw,
                        "re": [re.numerator, re.denominator],
                        "im": [im.numerator, im.denominator],
                    },
                    "jets": [
                        {"field": v.field, "dx": v.dx, "dt": [[n, k] for n, k in v.dt]}
                        for v in mono
                    ],
                })
        return items

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = "*".join(repr(v) for v in mono)
            if not factors:
                parts.append(f"({c!r})")
            else:
                parts.append(f"({c!r})*{factors}")
        return " + ".join(parts)


def _mono_key(mono: Monomial):
    return (len(mono), tuple(v._key for v in mono))


def _accumulate(acc: dict, terms: Mapping[Monomial, Coeff]) -> None:
    """Add a polynomial's terms into an accumulator dict, in place.

    Summing many polynomials this way is linear in their terms, where a
    chain of ``+`` copies the running total at every step.
    """
    for mono, c in terms.items():
        if mono in acc:
            acc[mono] = acc[mono] + c
        else:
            acc[mono] = c


def _best_rule_key(v: JetVar, rules: Mapping[JetVar, DiffPoly]):
    """Most specific rule key that v prolongs, if any."""
    best = None
    best_dist = None
    for key in rules:
        if key.field != v.field or v.dx < key.dx:
            continue
        kd = dict(key.dt)
        vd = dict(v.dt)
        if any(vd.get(n, 0) < k for n, k in kd.items()):
            continue
        dist = (v.dx - key.dx) + sum(vd.values()) - sum(kd.values())
        if best_dist is None or dist < best_dist:
            best, best_dist = key, dist
    return best


def _prolong_rule(rhs: DiffPoly, key: JetVar, target: JetVar) -> DiffPoly:
    out = rhs
    for _ in range(target.dx - key.dx):
        out = out.d_x()
    kd = dict(key.dt)
    for n, k in target.dt:
        for _ in range(k - kd.get(n, 0)):
            out = out.d_t(n)
    return out


def is_total_x_derivative(a: DiffPoly) -> bool:
    """Kernel test: a polynomial density with no constant term is a total
    x-derivative iff its variational derivatives in every field vanish."""
    fields = {v.field for v in a.jets()}
    return all(a.euler(f).is_zero() for f in fields)
