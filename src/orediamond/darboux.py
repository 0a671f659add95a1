"""Darboux polynomial search, pencils, and pencil-member elimination.

The search runs degree by degree.  For a candidate total degree n the
leading form of any Darboux polynomial must be a Darboux form of the
top-degree part D of the derivation; when M = x*B_d - y*A_d is nonzero
every linear factor of such a form divides M (apply the Euler identity
to x*D(h)), so candidate leading forms are built from the homogeneous
atoms of M.  Fixing a leading form makes the cofactor's top part exact
and the remaining coefficient system triangular by homogeneous level:
each level is linear over Q in the new unknowns, with earlier
parametric solutions carried symbolically.  The level matrices are
integer, the search running on L*delta (_degree_loop), and do not depend
on the parameters.  The first level's right side has no parameters
either, the lower cofactor parts entering only below it, so it is
eliminated as one more column of the first level's matrix, and most
leading forms fail there.  For a leading form that passes, the other
levels are reduced, and the number P of free columns of all levels
fixes the variables (x, y, p_0, ..., p_{P-1}) of the MPoly coefficients
the cascade computes with, one per (x, y)-monomial of each part; the
free unknowns become parameters in level-then-column order.  Rows left
unsatisfied become polynomial constraints on the parameters, solved over
Q at the end; a nonzero constant among them has no solution, so the
cascade stops at the first level that leaves one.  An affine family of
solutions enters as its base and its directions.  When M vanishes
identically the top part is a multiple of the Euler operator, the top
cofactor is forced, and for d = 1 the whole system is linear; for d = 0
(M is then the nonzero x*dy - y*dx) every cofactor is 0, and the degree
loop runs the same linear solve.

Two exits skip what a proof already answers.  A delta-simple field of
Shamsuddin shape has no Darboux polynomial, so darboux_search runs no
cascade on it; and a cascade with no free column, whose solution is
unique, takes the product of two pairs found at lower degrees when their
leading forms multiply to the one it is given (_cascade gives the proof).
It reads "no free column" off one table, not reducing the levels past 1
that have no cofactor column: such a level has one exactly when the
leading form's cofactor is that of a product of atoms of the level's
degree, the atoms of M being certified or M = 0 (_cascade's proof).

The report leaves out pencils and certificates that are composites
F(b, u) of a smaller reported pencil b/u (_composite_of).  Every span it
compares (pencil keys and membership, composites) is read off the echelon
rows of _span, each pencil's once; _kernel_echelon's basis is already in
that form.  The loop on
delta/gcd(dx, dy) stops at the degree D(m, c) that the first pencil
found, of degree m and cofactor c, bounds (Jouanolou; Stein; Vistoli):
darboux_search gives the proof.  A caller that reads only the first
pencil stops at m itself (first_integral_search gives the proof).
"""

from math import lcm

from .rational import Q, q
from .poly import (
    BiPoly,
    DomainError,
    UniPoly,
    _degree_lex,
    exact_divide,
    gcd,
    rational_roots,
    squarefree_part,
    uni_gcd,
)
from .multipoly import MPoly, mpoly_resultant
from .derivation import Derivation, _shamsuddin_shape, shamsuddin_analyze
from .unifactor import factor_univariate
from . import linalg
from .groebner import _eliminate, has_common_zero_with

INFINITY = float("inf")


class DarbouxCert:
    """An irreducible Darboux polynomial with its exact cofactor."""

    __slots__ = ("p", "cofactor")

    def __init__(self, deriv, p, cofactor):
        if p.is_zero or p.is_constant:
            raise DomainError("Darboux certificate requires a nonconstant polynomial")
        self.p = p.monic()
        self.cofactor = cofactor
        if not self.verify(deriv):
            raise DomainError("Darboux certificate failed verification")

    def verify(self, deriv):
        return deriv.apply(self.p) == self.cofactor * self.p

    def to_json(self):
        return {"p": self.p.render(), "cofactor": self.cofactor.render()}

    def __repr__(self):
        return f"DarbouxCert(p={self.p.render()}, cofactor={self.cofactor.render()})"


class PencilCert:
    """Two cofactor-sharing Darboux polynomials; p/q is a rational first
    integral and every p + t*q is Darboux."""

    __slots__ = ("p", "q", "cofactor")

    def __init__(self, deriv, p, q, cofactor):
        self.p = p
        self.q = q
        self.cofactor = cofactor
        if p.is_zero or q.is_zero or not self.verify(deriv):
            raise DomainError("pencil certificate failed verification")
        if p.monic() == q.monic():
            raise DomainError("pencil requires non-proportional members")

    def verify(self, deriv):
        """delta(p) = c*p and delta(q) = c*q, so q*delta(p) = p*delta(q)."""
        return all(deriv.apply(m) == self.cofactor * m for m in (self.p, self.q))

    def member(self, t):
        if t == INFINITY:
            return self.q
        return self.p + q(t) * self.q

    def to_json(self):
        return {"p": self.p.render(), "q": self.q.render(), "cofactor": self.cofactor.render()}

    def __repr__(self):
        return (
            f"PencilCert(p={self.p.render()}, q={self.q.render()}, "
            f"cofactor={self.cofactor.render()})"
        )


class DarbouxReport:
    """All irreducible Darboux data up to a degree bound; searched_degree
    is the last degree searched (see darboux_search)."""

    __slots__ = ("certs", "pencils", "degree_bound", "complete_up_to_bound", "searched_degree")

    def __init__(self, certs, pencils, degree_bound, complete_up_to_bound, searched_degree):
        self.certs = list(certs)
        self.pencils = list(pencils)
        self.degree_bound = degree_bound
        self.complete_up_to_bound = complete_up_to_bound
        self.searched_degree = searched_degree

    def to_json(self):
        """The CLI's darboux answer; searched_degree is left out."""
        return {
            "certs": [c.to_json() for c in self.certs],
            "pencils": [p.to_json() for p in self.pencils],
            "degree_bound": self.degree_bound,
            "complete_up_to_bound": self.complete_up_to_bound,
        }

    def __repr__(self):
        return (
            f"DarbouxReport(certs={self.certs}, pencils={self.pencils}, "
            f"bound={self.degree_bound}, complete={self.complete_up_to_bound}, "
            f"searched={self.searched_degree})"
        )


class PencilMembers:
    """Which members of a pencil meet a given variety."""

    __slots__ = ("kind", "members", "residual_nonrational")

    def __init__(self, kind, members=(), residual_nonrational=False):
        self.kind = kind  # "finite" | "all"
        self.members = list(members)  # (parameter, BiPoly)
        self.residual_nonrational = residual_nonrational

    def __repr__(self):
        if self.kind == "all":
            return "PencilMembers(all)"
        return f"PencilMembers({self.members}, residual={self.residual_nonrational})"


def _monomials(deg):
    return [(i, deg - i) for i in range(deg, -1, -1)]


def _splits_rationally(g, roots):
    """True when g splits into linear factors over Q, roots being its
    distinct rational roots: g has deg g - deg gcd(g, g') distinct roots
    over C."""
    return len(roots) == g.degree() - uni_gcd(g, g.derivative()).degree()


def _solve_constraints(cons):
    """Rational solutions of a polynomial constraint system.

    Returns (solutions, complete); each solution maps parameter index to
    a rational value, parameters absent from the map stay free.

    A call that finds a constraint in one variable v substitutes each of
    its rational roots for v, which removes v from every constraint.
    Otherwise it adds the resultant in the last variable v of the first
    two constraints that contain v, when that resultant is univariate, so
    the next call substitutes.  A call that removes no variable is
    followed by one that does, so the depth is at most twice the number
    of parameters.
    Two give-ups are left, each turning complete False: an irrational
    root, and a resultant that is not univariate (the next call would
    only compute it again) or fewer than two constraints in v.
    """
    cons = [c for c in cons if not c.is_zero]
    for c in cons:
        if c.is_constant:
            return [], True
    if not cons:
        return [{}], True
    for c in cons:
        vs = c.variables()
        if len(vs) == 1:
            v = vs[0]
            g = c.as_unipoly(v)
            roots = rational_roots(g)
            complete = _splits_rationally(g, roots)
            out = []
            for root in roots:
                rest = [cc.substitute({v: root}) for cc in cons]
                sols, comp = _solve_constraints(rest)
                complete = complete and comp
                for s in sols:
                    s = dict(s)
                    s[v] = root
                    out.append(s)
            return out, complete
    allvars = sorted({v for c in cons for v in c.variables()})
    v = allvars[-1]
    withv = [c for c in cons if c.degree_in(v) > 0]
    if len(withv) >= 2:
        res = mpoly_resultant(withv[0], withv[1], v)
        if len(res.variables()) == 1:
            return _solve_constraints(cons + [res])
    return [], False


def _top_atoms(big_m, d):
    """Homogeneous irreducible forms whose products are the admissible
    leading forms (the factors of M)."""
    u_coeffs = [big_m.coeff(k, d + 1 - k) for k in range(d + 2)]
    u = UniPoly(u_coeffs)
    atoms = []
    if u.degree() < d + 1:
        atoms.append(BiPoly.var_y())
    rep = factor_univariate(u)
    for atom, _mult in rep.factors:
        # a monic atom's int numerators are primitive: by Gauss's lemma
        # the level matrices are integral, the field being so (_degree_loop)
        k = atom.degree()
        atoms.append(BiPoly._raw(2, 1, {(i, k - i): c for (i,), c in atom.terms.items()}))
    return atoms, rep.certified


def _top_candidates(atoms, cofactors):
    """For n = 0, 1, 2, ... in turn, the products of atoms of total
    degree exactly n, each as (exponents, product, cofactor): the
    exponent vector e over atoms, in lexicographic order, and the sum of
    the atoms' cofactors (D(f*g) = D(f)*g + f*D(g) for the derivation D).

    Each product is built once, by one product with an atom: e's entry is
    atom_k times that of e - unit_k, of degree n - deg atom_k, k being the
    last index where e is nonzero; so degree n's entries are atom_k times
    the entries of degree n - deg atom_k that are 0 past k."""
    table = [[((0,) * len(atoms), BiPoly.one(), BiPoly.zero())]]
    degrees = [int(a.total_degree()) for a in atoms]
    while True:
        yield table[-1]
        n = len(table)
        entries = []
        for k, (atom, cofactor, deg) in enumerate(zip(atoms, cofactors, degrees)):
            if deg <= n:
                for e, p, c in table[n - deg]:
                    if not any(e[k + 1:]):
                        entries.append((e[:k] + (e[k] + 1,) + e[k + 1:], p * atom, c + cofactor))
        entries.sort(key=lambda entry: entry[0])
        table.append(entries)


def _level_matrix(ad, bd, p_top, c_top, mons_p, mons_c, eq_mons):
    """One cascade level's int matrix: in row x^a*y^b, column x^i*y^j of
    p holds the coefficient of x^a*y^b in (ad*d/dx + bd*d/dy -
    c_top)(x^i*y^j), column x^i*y^j of the cofactor that in
    -x^i*y^j*p_top.  Each column is built from the terms of the four
    polynomials, so only its nonzero entries are written; every term
    lands in a row, the polynomials being homogeneous of the degrees the
    level pairs, and integral (_degree_loop)."""
    A, B, C, P = (p.terms for p in (ad, bd, c_top, p_top))
    top = eq_mons[0][0]  # row x^a*y^b is row top - a
    rows = [[0] * (len(mons_p) + len(mons_c)) for _ in eq_mons]
    for col, (i, j) in enumerate(mons_p):
        if i:
            for (u, _), c in A.items():
                rows[top - i + 1 - u][col] += i * c
        if j:
            for (u, _), c in B.items():
                rows[top - i - u][col] += j * c
        for (u, _), c in C.items():
            rows[top - i - u][col] -= c
    for col, (i, _) in enumerate(mons_c, len(mons_p)):
        for (u, _), c in P.items():
            rows[top - i - u][col] -= c
    return rows


def _cascade_level(ab_parts, n, p_top, c_top, s, rhs=None):
    """Level s of the cascade's int left-hand side, reduced.

    ab_parts holds the homogeneous parts (a_e, b_e) of the derivation for
    e = 0..d, and the level reads the top ones (a_d, b_d).  Level s solves
    for the homogeneous parts of degree n - s of p and d - 1 - s of the
    cofactor (its unknowns: the coefficients on mons_p and mons_c) from
    the equation's part of degree n + d - 1 - s, on eq_mons.  Returns
    (mons_p, mons_c, eq_mons, m, pivots, ops), m, pivots and ops being
    what linalg.rref returns for the level's matrix; the free columns are
    those outside pivots.  A parameter-free right side rhs, a BiPoly
    homogeneous of the equation's degree, enters the matrix as one more
    column, which rref eliminates with it: the last column of m.
    """
    d = len(ab_parts) - 1
    mons_p = _monomials(n - s) if s <= n else []
    mons_c = _monomials(d - 1 - s) if s <= d - 1 else []
    eq_mons = _monomials(n + d - 1 - s)
    rows = _level_matrix(*ab_parts[d], p_top, c_top, mons_p, mons_c, eq_mons)
    if rhs is not None:
        for row, e in zip(rows, eq_mons):
            row.append(rhs.terms.get(e, 0))
    m, pivots, ops = linalg.rref(rows, len(mons_p) + len(mons_c))
    return mons_p, mons_c, eq_mons, m, pivots, ops


def _cascade(ab_parts, n, p_top, c_top, known=None):
    """Solve delta(p) = c*p level by level below a fixed leading form.

    ab_parts holds the homogeneous parts (a_e, b_e) of delta(x) and
    delta(y) for e = 0..d, d = len(ab_parts) - 1 being the degree of
    delta; _degree_loop builds it once per search.  Every part of p and
    of the cofactor is held as a map {(i, j): coefficient of x^i*y^j},
    each coefficient an MPoly in (x, y, p_0, ..., p_{P-1}) free of x and
    y; P is the number of free columns of the level matrices, and p_k is
    the k-th of them in level-then-column order.

    Level 1 is reduced and solved alone first.  Its right side is
    D_{d-1}(p_top) = a_{d-1}*dp_top/dx + b_{d-1}*dp_top/dy: the cofactor
    parts below c_top enter only from level 2 on, so it has no
    parameters, and rref eliminates it as the last column of the level's
    matrix, on ints, before P is known.  A nonzero row it leaves below
    the pivots has no solution, and most leading forms are refuted there,
    with no other level reduced.  P needs the
    free-column count of every level, so the others are reduced only for
    a leading form that passes, and level 1's right side, the last
    column of its pivot rows, then enters the MPoly layout as constants.

    From level 2 on, a level's right side is built monomial by monomial:
    every contribution to the coefficient of one monomial is num/den
    times a parameter monomial times a coefficient of a part of p (a term
    of a parameter-free a/b part times a gradient coefficient, or a term
    of a cofactor coefficient times a p coefficient), and
    MPoly.combination sums them in one pass over one common denominator.
    The coefficients are the ones the flat product of whole parts would
    give, so the level matrices, the replayed right sides, the
    constraints and their order, the arity and the numbering of the
    parameters are those of that product; the parts are joined into one
    MPoly only for _cascade_answers.

    With no free column (P = 0), known, the found pairs indexed by their
    monic leading form (_degree_loop; None runs every level), may give
    the answer instead: when the leading forms of two found pairs (f,
    c_f), (g, c_g) multiply to p_top up to a scalar lam, the cascade
    returns [(lam*f*g, c_f + c_g)] with no right side built.  Proof: with
    no free column every level's matrix has full column rank, so its
    unknowns are fixed by the levels above, and at most one (p, c) has
    p's top part p_top.  lam*f*g is Darboux with cofactor c_f + c_g and
    top part p_top, and the part of degree d - 1 of any cofactor of such
    a p is the forced c_top (D(p_top) = c_top*p_top, D the top part of
    delta); so (lam*f*g, c_f + c_g) is that one solution, the one the
    levels would give.

    known.cofactors reads P = 0 off the atoms, the levels s >= max(2, d)
    left unreduced: for each degree k < n it holds the cofactors of the
    products of atoms of degree k, {0} at k = 0.  Such a level has no
    cofactor column, and its matrix is h -> D(h) - c_top*h on the forms h
    of degree k = n - s (no column when s > n): it has a free column
    exactly when c_top is in cofactors[k].  Proof: a free column is a
    form h != 0 with D(h) = c_top*h.  When M = 0, a_d = x*r and b_d =
    y*r for a form r != 0, so D = r*(x*d/dx + y*d/dy) and Euler's
    identity gives D(h) = k*r*h: with c_top = n*r the matrix is h -> (k -
    n)*r*h, injective, and the atoms x, y, each of cofactor r, give
    cofactors[k] = {k*r}.  When M != 0, every Q-irreducible factor f of h
    is Darboux for D: with h = f^e*g and f not dividing g, D(h) =
    c_top*h gives f | e*D(f)*g, so f | D(f).  By Euler's identity x*D(f)
    = deg(f)*a_d*f + f_y*M and y*D(f) = deg(f)*b_d*f - f_x*M, so f
    divides f_y*M and f_x*M; f divides neither nonzero partial, of lower
    degree, and they are not both 0, so f | M.  Certified atoms are all
    the Q-irreducible factors of M, up to scale: those of M(t, 1), and y
    when deg M(t, 1) < d + 1 (_top_atoms).  So h is a scalar times a
    product of atoms of degree k, c_top, the sum of their cofactors, is
    in cofactors[k], and conversely (at k = 0, h is a constant and c_top
    = 0).  So when level 1 and the levels 2..d-1, which have cofactor
    columns, have full column rank, and c_top is in no cofactors[n - s],
    then P = 0 and _known_product is tried before any other level is
    reduced; otherwise, or when it finds no product, every level is.
    known is None when the factorization of M is not certified.

    Returns (solutions, complete) as _cascade_answers does; ([], True) as
    soon as a level leaves a nonzero constant row.
    """
    d = len(ab_parts) - 1
    # level 1's right side D_{d-1}(p_top), eliminated as the last column
    # of its matrix: a nonzero one below the pivots refutes p_top before
    # any other level is reduced
    a, b = ab_parts[d - 1]
    first = _cascade_level(ab_parts, n, p_top, c_top, 1, a * p_top.deriv_x() + b * p_top.deriv_y())
    _, _, _, m, pivots, _ = first
    if any(row[-1] for row in m[len(pivots):]):
        return [], True
    levels = [first] + [_cascade_level(ab_parts, n, p_top, c_top, s) for s in range(2, d)]
    if (
        known
        and not any(map(_free_columns, levels))
        and all(c_top not in known.cofactors[n - s] for s in range(max(2, d), n + 1))
        and (product := _known_product(p_top, known)) is not None
    ):
        return [product], True
    levels += [_cascade_level(ab_parts, n, p_top, c_top, s) for s in range(len(levels) + 1, n + d)]
    nv = 2 + sum(map(_free_columns, levels))
    params = iter(range(2, nv))
    parts_p = {n: {e: MPoly.const(nv, c) for e, c in p_top.terms.items()}}  # p_top and c_top are integral
    parts_c = {d - 1: {e: MPoly.const(nv, c) for e, c in c_top.terms.items()}}
    zero = MPoly.zero(nv)
    constraints = []
    rhs = [MPoly.const(nv, row[-1]) for row in m[: len(pivots)]]  # level 1's, read below
    for s, (mons_p, mons_c, eq_mons, m, pivots, ops) in enumerate(levels, 1):
        if s > 1:
            items = {}  # (x, y)-monomial: its (num, den, parameter monomial, coefficient)
            for i in range(max(0, s - d), min(s - 1, n) + 1):
                a_e, b_e = ab_parts[d - (s - i)]
                for (k, l), coeff in parts_p[n - i].items():
                    if k:
                        for (u, v), num in a_e.terms.items():
                            items.setdefault((k - 1 + u, l + v), []).append((k * num, a_e.den, (), coeff))
                    if l:
                        for (u, v), num in b_e.terms.items():
                            items.setdefault((k + u, l - 1 + v), []).append((l * num, b_e.den, (), coeff))
            for j in range(1, min(s - 1, d - 1) + 1):
                ppart = parts_p.get(n - s + j, {})
                for (u, v), cc in parts_c[d - 1 - j].items():
                    for mono, num in cc.terms.items():
                        for (k, l), coeff in ppart.items():
                            items.setdefault((k + u, l + v), []).append((-num, cc.den, mono, coeff))
            g = {e: MPoly.combination(nv, it) for e, it in items.items()}
            # m*u + rhs = 0, rhs being the right sides after the row operations
            rhs = linalg.replay(ops, [g.get(e, zero) for e in eq_mons])
            leftover = [v for v in rhs[len(pivots):] if v]
            if any(v.is_constant for v in leftover):
                # a nonzero constant row has no solution: the answer
                # _solve_constraints would give, without the levels below
                return [], True
            constraints.extend(leftover)
        ncols = len(mons_p) + len(mons_c)
        free = [c for c in range(ncols) if c not in pivots]
        u = [None] * ncols
        for f in free:
            u[f] = MPoly.var(nv, next(params))
        for row, c, v in zip(m, pivots, rhs):
            u[c] = -v
            for f in free:
                if row[f]:
                    u[c] = u[c] - row[f] * u[f]
        if mons_p:
            parts_p[n - s] = {e: c for e, c in zip(mons_p, u) if c}
        if mons_c:
            parts_c[d - 1 - s] = {e: c for e, c in zip(mons_c, u[len(mons_p):]) if c}
    p_all = MPoly.from_xy_coeffs([t for part in parts_p.values() for t in part.items()], nv)
    c_all = MPoly.from_xy_coeffs([t for part in parts_c.values() for t in part.items()], nv)
    return _cascade_answers(p_all, c_all, constraints)


def _free_columns(level):
    """The number of free columns of a level _cascade_level returns."""
    mons_p, mons_c, _, _, pivots, _ = level
    return len(mons_p) + len(mons_c) - len(pivots)


class _Known(dict):
    """_degree_loop's index of the pairs found so far, by monic leading
    form, for _known_product; cofactors maps each degree k to the
    cofactors of the products of atoms of degree k (_cascade)."""

    __slots__ = ("cofactors",)

    def __init__(self):
        super().__init__()
        self.cofactors = {0: {BiPoly.zero()}}


def _leading_form(p):
    """The monic top-degree part of p, the key of _degree_loop's index."""
    return p.homogeneous_part(int(p.total_degree())).monic()


def _known_product(p_top, known):
    """(lam*f*g, c_f + c_g) for two pairs (f, c_f), (g, c_g) of known
    whose leading forms multiply to lam^-1*p_top, else None; known maps a
    monic leading form to a found pair that has it."""
    top = p_top.leading_exp()
    for form, (f, c_f) in known.items():
        if all(a <= b for a, b in zip(form.leading_exp(), top)):
            rest = exact_divide(p_top, form)
            if rest is not None and (pair := known.get(rest.monic())) is not None:
                g, c_g = pair
                fg = f * g
                return p_top.lc() / fg.lc() * fg, c_f + c_g
    return None


def _cascade_answers(p_all, c_all, constraints):
    """The cascade's (solutions, complete) from the whole p and cofactor
    in (x, y, p_0, ..., p_{P-1}) and the parameter constraints: solutions
    are (p, c) pairs.  An affine family base + span(directions) enters as
    its base and each direction, all with cofactor c: base and base +
    direction are in ker(delta - c), so their difference is too.  No
    parameter is left in c, which would then take infinitely many values:
    the Darboux polynomials of one degree have finitely many cofactors, as
    a nonzero derivation has finitely many invariant curves or, by
    Jouanolou, all but finitely many are fibers of a minimal first
    integral, sharing its cofactor.  to_bipoly raises should that fail."""
    sols, complete = _solve_constraints(constraints)
    solutions = []
    for values in sols:
        pm, c_val = p_all.substitute(values), c_all.substitute(values).to_bipoly()
        free = [v for v in pm.variables() if v > 1]
        # pm is affine in the free parameters, so no direction involves
        # one.  Substituting values is a ring map, and the parts of c
        # have distinct (x, y)-degrees, so each substituted cofactor part
        # is free of parameters with c.  Each product in a level's right
        # side has as one factor a cofactor part or a parameter-free
        # a/b part, the other a part of p or its gradient, and the level
        # is affine in its right side and new parameters: by induction
        # over the levels each substituted part of p is affine.  Were
        # it not, to_bipoly would raise on a direction.
        base = pm.substitute(dict.fromkeys(free, 0))
        solutions += [(f.to_bipoly(), c_val) for f in [base] + [pm.deriv(v) for v in free]]
    return solutions, complete


def _kernel_echelon(deriv, c0, n):
    """The reduced echelon basis of {p : deg p <= n, delta(p) = c0*p},
    the _span of its kernel; each p is monic, its pivot leading.  Over the
    monomials in ascending graded-lex order, the nullspace vector of a free
    column f is 1 at f, else nonzero only at pivot columns left of f: f
    leads it, and no other vector has a term at f.  Reversed, the vectors
    are thus the reduced echelon basis, which is unique."""
    mons = [e for deg in range(n + 1) for e in reversed(_monomials(deg))]
    views = [(deriv.apply(BiPoly.monomial(*e)) - c0 * BiPoly.monomial(*e)).terms for e in mons]
    rows = [[v.get(e, 0) for v in views] for e in set().union(*views)]
    return [BiPoly(dict(zip(mons, vec))) for vec in reversed(linalg.nullspace(rows, len(mons)))]


def _span(*polys):
    """The reduced echelon rows of polys over their monomials, in
    descending graded-lex order, as (monomial, coefficient) tuples: a
    canonical key of their span.  A span does not change when a
    polynomial is scaled, so the rows hold the int numerators."""
    mons = sorted(set().union(*(f.terms for f in polys)), key=_degree_lex, reverse=True)
    rows = [[f.terms.get(e, 0) for e in mons] for f in polys]
    ech, _, _ = linalg.rref(rows, len(mons))
    return tuple(
        tuple((mons[k], v) for k, v in enumerate(row) if v) for row in ech if any(row)
    )


def _order_pair(p, q_):
    """Pencil display order: ascending degree, constants last, then
    graded-lex on leading monomials."""

    def key(poly):
        if poly.is_constant:
            return (1, 0, (0, 0))
        # the leading exponent has the total degree as its sum, so within
        # one degree its negated entries order it graded-lex, descending
        return (0, int(poly.total_degree()), tuple(-v for v in poly.leading_exp()))

    return tuple(sorted((p, q_), key=key))


def _composite_of(b, u, polys):
    """True when every poly is F(b, u) for binary forms F of one degree k.

    With gcd(b, u) = 1 and p/q in lowest terms, p/q = R(b/u) exactly when
    this holds for (p, q): over C, F(b, u) is a product of k members
    alpha*b + beta*u, and distinct members are coprime.  At most one
    member is constant, up to scale, and coprime F, G cannot both have it
    as a factor, so deg F(b, u) >= k or deg G(b, u) >= k (for one poly,
    divide F by those factors): k <= max deg poly.  The test is linear
    over Q, so a complex R gives a rational one too.
    """
    top = int(max(p.total_degree() for p in polys))
    gens = [BiPoly.one()]  # b^i * u^(k-i) for i = 0..k
    for k in range(1, top + 1):
        gens = [g * u for g in gens] + [gens[-1] * b]
        span = _span(*gens)
        if all(_span(p, *gens) == span for p in polys):
            return True
    return False


def darboux_search(deriv, bound, *, settled=None, first_pencil=False):
    """All monic Q-irreducible Darboux polynomials of total degree at
    most bound, with a pencil for every two found that share a cofactor
    (the constant 1 among them), leaving out composites F(b, u) of a
    smaller pencil b/u other than its members.

    settled, for a field with coprime dx and dy such as decide's delta/g,
    lets a caller end the search once degree 1 answers its question.  When
    the search goes on past degree 1, it is called once with the report
    through degree 1, the one darboux_search(deriv, 1) returns, and a true
    return ends the search with that report.  first_pencil, for a caller
    that reads pencils[0] alone, ends the loop on delta/g after the first
    degree n >= deg g whose report holds a pencil, with that report, its
    degree_bound n (the proof is in first_integral_search).

    A delta-simple field needs no search.  When delta has the Shamsuddin
    shape c*(d/dx + (a*y + b)*d/dy) and shamsuddin_analyze finds no
    polynomial c' = a*c + b (status d_simple), Q[x, y] has no proper
    nonzero delta-ideal (Shamsuddin 1977).  A nonconstant Darboux p would
    generate one, delta(p) = c*p lying in (p), so no degree has anything
    to report: the report is empty and complete, with searched_degree the
    bound, as if every degree through it had been searched.

    With g = gcd(dx, dy), the degree loop runs on delta/g to the bound,
    with the stop below, and, when g is not constant, on delta through
    deg g, without it; the cofactors of delta/g enter times g.  This is
    exact: an irreducible p that does not divide g and divides delta(p) =
    g*(delta/g)(p) divides (delta/g)(p), so the irreducible Darboux
    polynomials of delta are those of delta/g and the factors of g, and
    p/q is a first integral of delta exactly when it is one of delta/g.
    complete_up_to_bound is the AND of the two runs, searched_degree the
    larger of their last degrees.

    The stop (Jouanolou, LNM 708).  Let m be the first degree where the
    polynomials found for delta/g include a pencil b/u, with cofactor c,
    and let the search be complete through m.  Then no degree above D =
    max(m, S*(m - 1)) has anything to report, S bounding the number of
    reducible fibers b - lambda*u of a non-composite b/u: m - 1 when c = 0
    (Stein, Israel J. Math. 1989), m^2 - 1 otherwise (Vistoli, Invent.
    Math. 1993).  Proof: completeness through m makes b/u minimal, hence
    non-composite, and delta/g, being coprime, has finitely many singular
    points, so every irreducible invariant curve lies in a fiber.  The
    complex factors of a Q-irreducible Darboux polynomial f of degree > m
    are conjugate, so either they are whole reduced fibers and f = F(b, u)
    is a composite, which the report drops, or they are proper components
    of k <= S reducible fibers and deg f <= S*(m - 1).  Conjugate
    non-reduced irreducible fibers C^e, C'^e do not occur: b/u would be a
    Moebius image of (C/C')^e, a composite.  A constant field is covered:
    the gcd of two constants, not both zero, is 1, and it has no singular
    points.
    """
    if deriv.is_zero:
        raise DomainError("every polynomial is Darboux for the zero derivation")
    if bound < 1:
        raise DomainError("degree bound must be at least 1")
    shape = _shamsuddin_shape(deriv)
    if shape is not None and shamsuddin_analyze(*shape).status == "d_simple":
        return DarbouxReport([], [], bound, True, bound)
    g = gcd(deriv.dx, deriv.dy)
    head, whole, searched, reduced = [], True, 0, deriv  # delta's own run, when g is not constant
    if not g.is_constant:
        if settled is not None:
            raise DomainError("settled needs coprime dx and dy")
        # delta's pairs first: ties in the report keep a search of delta's order
        *_, (head, whole, searched, _) = _degree_loop(deriv, min(bound, int(g.total_degree())), False)
        reduced = coprime_part(deriv, g)

    def pairs(found):
        return found if reduced is deriv else head + [(p, g * c) for p, c in found]

    for found, complete, n, last in _degree_loop(reduced, bound, True):
        if settled is not None and n == 1 and not last:
            report = _assemble_report(deriv, found, 1, complete, 1)
            if settled(report):
                return report
        if first_pencil and not last and n >= searched and _pencil_cofactor(every := pairs(found)) is not None:
            report = _assemble_report(deriv, every, n, whole and complete, n)
            if report.pencils:
                return report
    return _assemble_report(deriv, pairs(found), bound, whole and complete, max(searched, n))


def _degree_loop(deriv, bound, stops):
    """darboux_search's degree loop on deriv through bound, or through
    the stop at the first pencil when stops.  A generator, so that a
    search can pause between degrees: after each degree n it yields
    (found, complete, n, last), found being the (p, cofactor) pairs so
    far and last whether n ends the loop.
    Before the leading forms of degree n it indexes the pairs found so
    far, all of lower degree, by their monic leading form (known), which
    _cascade reads when a cascade has no free column; known.cofactors
    gets the cofactors of the leading forms of each degree, read off the
    table of products of atoms (_top_candidates) that gives the leading
    forms.  known is None when the factorization of M is not certified.

    The loop runs on L*delta, L = lcm(den dx, den dy) > 0, and yields
    delta's cofactors c/L.  L*delta is integral, as is every polynomial
    entering a level matrix, level 1's column or a kernel row
    (_top_atoms).  The reports are delta's: L*delta scales each level's
    rows by L and its cofactor columns by 1/L, keeping rref's pivot
    columns and row swaps, so the free columns and the parameter order
    are delta's; the constraints are delta's up to scaling, and their
    sorted rational roots delta's, as L > 0.  known.cofactors,
    _known_product, _pencil_cofactor and _stop_degree only compare
    cofactors or test them for zero: L*delta's serve."""
    if (scale := lcm(deriv.dx.den, deriv.dy.den)) != 1:
        deriv = Derivation(deriv.dx * scale, deriv.dy * scale)
    a_pol, b_pol = deriv.dx, deriv.dy
    d = int(max(a_pol.total_degree(), b_pol.total_degree()))
    # L*delta's homogeneous parts (a_e, b_e), e = 0..d, which every cascade reads
    ab_parts = [(a_pol.homogeneous_part(e), b_pol.homogeneous_part(e)) for e in range(d + 1)]
    ad, bd = ab_parts[d]
    big_m = BiPoly.var_x() * bd - BiPoly.var_y() * ad
    complete = certified = True
    atoms = None
    if d == 0:
        hval = 0  # delta lowers the degree, so every cofactor is 0
    elif not big_m.is_zero:
        atoms, certified = _top_atoms(big_m, d)
        complete = certified
    elif d == 1:
        hval = exact_divide(ad, BiPoly.var_x()).constant_value()
    else:
        # every form is Darboux for D = r*E, and only the monomials are
        # tried as leading forms
        complete = False
        atoms = [BiPoly.var_x(), BiPoly.var_y()]
    if atoms is not None:
        # an atom f | M divides x*D(f) and y*D(f) by Euler's identity
        # (_cascade), so D(f) as gcd(x, y) = 1; x and y do when M = 0.
        # A product's cofactor is the sum of its atoms'
        cofactors = [exact_divide(ad * a.deriv_x() + bd * a.deriv_y(), a) for a in atoms]
        table = _top_candidates(atoms, cofactors)
        next(table)  # degree 0, the empty product
    found = []  # (p, cofactor)
    # the found pairs by monic leading form, and the cofactors of the
    # products of atoms by degree (_cascade)
    known = _Known() if certified else None
    indexed = 0  # pairs read into known
    stop, n = bound, 0
    while n < stop:
        n += 1
        if atoms is None:
            c0 = BiPoly.const(n * hval)
            found += [(p, c0) for p in _kernel_echelon(deriv, c0, n)]
        else:
            candidates = next(table)
            if known is not None:
                known.update((_leading_form(p), (p, c)) for p, c in found[indexed:])
                indexed = len(found)
                known.cofactors[n] = {c for _, _, c in candidates}
            for _, p_top, c_top in candidates:
                sols, comp = _cascade(ab_parts, n, p_top, c_top, known)
                complete = complete and comp
                found += sols
        if stops and (c := _pencil_cofactor(found)) is not None:
            stops = False
            if complete:
                stop = min(bound, _stop_degree(n, c))
        yield (found if scale == 1 else [(p, c * Q(1, scale)) for p, c in found]), complete, n, n >= stop


def _pencil_cofactor(found):
    """The cofactor c of a pencil among the polynomials found (two
    non-proportional ones, or one with c = 0 and 1), else None.  Only a
    cofactor seen before needs the monic forms compared."""
    first = {}
    for p, c in found:
        if c.is_zero:
            return c
        f = first.setdefault(c, p)
        if f is not p and f.monic() != p.monic():
            return c
    return None


def _stop_degree(m, cofactor):
    """D(m, c), the last degree darboux_search needs after a minimal
    pencil of degree m with cofactor c."""
    s = m - 1 if cofactor.is_zero else m * m - 1
    return max(m, s * (m - 1))


def _assemble_report(deriv, found, bound, complete, searched):
    """The report on the (p, cofactor) pairs found: each p is taken monic
    once, the constant 1 kept as a pencil partner; every two that share a
    cofactor span a pencil, and the nonconstant ones are the candidate
    certificates."""
    entries = sorted(
        {p.monic(): c for p, c in found}.items(),
        key=lambda pc: (int(pc[0].total_degree()), _degree_lex(pc[0].leading_exp())),
    )
    pencil_map = {}  # span: (degree, graded-lex key, p, q, cofactor)
    for i, (p, c) in enumerate(entries):
        for q_, c2 in entries[i + 1:]:
            if c == c2:
                a, b = _order_pair(p, q_)
                pencil_map.setdefault(_span(a, b), (int(q_.total_degree()), _degree_lex(a.leading_exp()), a, b, c))
    # a pencil with a common factor, or a function of a smaller pencil,
    # carries no new information
    pencils = []  # (degree, p, q, cofactor, span); q is the constant one, if any (_order_pair)
    for span, (deg, _, p, q_, c) in sorted(pencil_map.items(), key=lambda kv: kv[1][:2]):
        if (q_.is_constant or gcd(p, q_).is_constant) and not any(
            m < deg and _composite_of(b, u, (p, q_)) for m, b, u, _, _ in pencils
        ):
            pencils.append((deg, p, q_, c, span))
    factors, certs = [], []  # the irreducible ones, and those in no pencil
    for p, c in entries:
        deg = p.total_degree()
        # pure filters, cheapest first: most found polynomials that are
        # not square-free are multiples of an irreducible one
        if p.is_constant or any(exact_divide(p, f) is not None for f in factors if f.total_degree() < deg):
            continue
        if squarefree_part(p) != p:
            continue
        members = [_span(p, b, u) == span for _, b, u, _, span in pencils]
        if any(not inside and m <= deg and _composite_of(b, u, (p,)) for inside, (m, b, u, _, _) in zip(members, pencils)):
            continue
        factors.append(p)
        if not any(members):
            certs.append(DarbouxCert(deriv, p, c))
    pencil_certs = [PencilCert(deriv, p, q_, c) for _, p, q_, c, _ in pencils]
    return DarbouxReport(certs, pencil_certs, bound, complete, searched)


def coprime_part(deriv, g):
    """delta/g, for g a common factor of delta(x) and delta(y), such as
    their gcd.  p/q is a rational first integral of delta exactly when it
    is one of delta/g, since delta(p/q) = g*(delta/g)(p/q): the two fields
    have the same pencils, with cofactors that differ by the factor g.
    darboux_search divides by the gcd; decide divides before it searches,
    as its audit reads the Darboux polynomials of delta/g alone."""
    return Derivation(exact_divide(deriv.dx, g), exact_divide(deriv.dy, g))


def first_integral_search(deriv, bound):
    """A rational first integral p/q of degree <= bound, or None: the
    first pencil darboux_search finds, a PencilCert of delta.

    The search stops at the first degree n >= deg g whose report holds a
    pencil (first_pencil), whose pencils[0] is that of the report at the
    bound.  Every pair found has degree <= n, delta's own run ending at
    deg g, and a pencil's degree, that of its larger member, is the first
    sort key of _assemble_report.  Degree n' > n adds only pairs of degree
    n' (the kernel of a constant field also returns lower ones, with the
    same cofactor 0, which the report's dict keeps once, where they were),
    so later pencils have degree above n and spans of their own.  The gcd
    filter reads a pencil alone, the composite filter only smaller kept
    pencils: neither drops the first one later.  Completeness is not needed.
    """
    pencils = darboux_search(deriv, bound, first_pencil=True).pencils
    return pencils[0] if pencils else None


def pencil_members_through(pencil, gens):
    """The pencil members p + t*q whose curves meet V(gens), the common
    zeros of gens over C.  singular_darboux_audit passes the reduced basis
    of the singular locus, and any generators of that ideal give the same
    members.  A nonzero constant among gens raises DomainError: V(gens) is
    then empty, and every Groebner basis of the unit ideal, [1] among
    them, holds one.  Other generators of the unit ideal, such as
    [x, x + 1], do not raise; they give "finite" with no members, since
    no curve meets the empty set.

    Let I = (gens, p + t*q) in Q[x, y, t] and take I ∩ Q[t] from a lex
    basis (groebner._eliminate).  Its zero set is the closure of the
    projection of V(I) to the t-line (closure theorem; Cox, Little &
    O'Shea, 3.2).  If I ∩ Q[t] = (g) with g != 0, the projection lies in
    the finite set V(g), which is closed, so it is exactly V(g): the
    members are p + r*q for the rational roots r of g, and
    residual_nonrational says that g does not split over Q, i.e. some
    member through V(gens) has an irrational parameter.  If I ∩ Q[t] = 0
    the answer is "all": exact when V(gens) is finite (the projection is
    then a finite union of points and lines, and its closure is the whole
    line), cofinite otherwise.  The member t = infinity, q, is checked on
    its own.
    """
    gens = [g for g in gens if not g.is_zero]
    if any(g.is_constant for g in gens):
        raise DomainError("unit ideal: the variety is empty")
    member = MPoly.from_bipoly(pencil.p, 3) + MPoly.var(3, 2) * MPoly.from_bipoly(pencil.q, 3)
    eliminant = _eliminate([MPoly.from_bipoly(g, 3) for g in gens] + [member], 2)
    if not eliminant:
        return PencilMembers("all")
    (g,) = eliminant
    g = g.as_unipoly(2)
    roots = rational_roots(g)
    members = [(t, pencil.member(t)) for t in roots]
    if not pencil.q.is_constant and has_common_zero_with(gens, pencil.q):
        members.append((INFINITY, pencil.q))
    return PencilMembers("finite", members, residual_nonrational=not _splits_rationally(g, roots))
