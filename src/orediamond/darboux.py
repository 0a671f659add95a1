"""Darboux polynomial search, pencils, and pencil-member elimination.

The search runs degree by degree.  For a candidate total degree n the
leading form of any Darboux polynomial must be a Darboux form of the
top-degree part D of the derivation; when M = x*B_d - y*A_d is nonzero
every linear factor of such a form divides M (apply the Euler identity
to x*D(h)), so candidate leading forms are built from the homogeneous
atoms of M.  Fixing a leading form makes the cofactor's top part exact
and the remaining coefficient system triangular by homogeneous level:
each level is linear over Q in the new unknowns, with earlier
parametric solutions carried symbolically.  When M vanishes
identically the top part is a multiple of the Euler operator, the top
cofactor is forced, and for d = 1 the whole system is linear.
"""

from functools import reduce

from .rational import QONE, QZERO, q
from .poly import (
    BiPoly,
    DomainError,
    NEG_INF,
    UniPoly,
    _grlex_key,
    exact_divide,
    gcd,
    rational_roots,
    squarefree_part,
    uni_gcd,
)
from .multipoly import MPoly, mpoly_resultant
from .unifactor import factor_univariate
from . import linalg
from .groebner import has_common_zero_with, is_unit_ideal

INFINITY = float("inf")

_NPARAMS = 48


class DarbouxCert:
    """An irreducible Darboux polynomial with its exact cofactor."""

    __slots__ = ("p", "cofactor")

    def __init__(self, deriv, p, cofactor):
        if p.is_zero or p.is_constant:
            raise DomainError("Darboux certificate requires a nonconstant polynomial")
        if deriv.apply(p) != cofactor * p:
            raise DomainError("Darboux certificate failed verification")
        self.p = p.monic()
        self.cofactor = cofactor

    def verify(self, deriv):
        return deriv.apply(self.p) == self.cofactor * self.p

    def __repr__(self):
        return f"DarbouxCert(p={self.p.render()}, cofactor={self.cofactor.render()})"


class PencilCert:
    """Two cofactor-sharing Darboux polynomials; p/q is a rational first
    integral and every p + t*q is Darboux."""

    __slots__ = ("p", "q", "cofactor")

    def __init__(self, deriv, p, q, cofactor):
        for m in (p, q):
            if m.is_zero or deriv.apply(m) != cofactor * m:
                raise DomainError("pencil certificate failed verification")
        if _proportional(p, q):
            raise DomainError("pencil requires non-proportional members")
        self.p = p
        self.q = q
        self.cofactor = cofactor

    def verify(self, deriv):
        return (
            deriv.apply(self.p) == self.cofactor * self.p
            and deriv.apply(self.q) == self.cofactor * self.q
            and self.q * deriv.apply(self.p) == self.p * deriv.apply(self.q)
        )

    def member(self, t):
        if t == INFINITY:
            return self.q
        return self.p + q(t) * self.q

    def __repr__(self):
        return (
            f"PencilCert(p={self.p.render()}, q={self.q.render()}, "
            f"cofactor={self.cofactor.render()})"
        )


class DarbouxReport:
    """All irreducible Darboux data up to a degree bound."""

    __slots__ = ("certs", "pencils", "degree_bound", "complete_up_to_bound")

    def __init__(self, certs, pencils, degree_bound, complete_up_to_bound):
        self.certs = list(certs)
        self.pencils = list(pencils)
        self.degree_bound = degree_bound
        self.complete_up_to_bound = complete_up_to_bound

    def __repr__(self):
        return (
            f"DarbouxReport(certs={self.certs}, pencils={self.pencils}, "
            f"bound={self.degree_bound}, complete={self.complete_up_to_bound})"
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


def _proportional(p, q_):
    if p.is_zero or q_.is_zero:
        return True
    return p.monic() == q_.monic()


def _monomials(deg):
    return [(i, deg - i) for i in range(deg, -1, -1)]


class _ParamPool:
    def __init__(self, nvars=_NPARAMS):
        self.nvars = nvars
        self.used = 0

    def fresh(self):
        if self.used >= self.nvars:
            raise DomainError("parameter pool exhausted")
        self.used += 1
        return self.used - 1

    def const(self, c):
        return MPoly.const(self.nvars, c)

    def var(self, i):
        return MPoly.var(self.nvars, i)


# -- parametric bivariate helpers (dict (i,j) -> MPoly) ----------------


def _pb_from(p, pool):
    return {e: pool.const(c) for e, c in p.terms.items()}


def _pb_add(a, b):
    out = dict(a)
    for e, m in b.items():
        s = out.get(e)
        s = m if s is None else s + m
        if s.is_zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _pb_neg(a):
    return {e: -m for e, m in a.items()}


def _pb_deriv(a, axis):
    out = {}
    for (i, j), m in a.items():
        if axis == 0 and i:
            out[(i - 1, j)] = m * i
        elif axis == 1 and j:
            out[(i, j - 1)] = m * j
    return out


def _pb_mul_concrete(a, p):
    out = {}
    for (i, j), m in a.items():
        for (k, l), c in p.terms.items():
            e = (i + k, j + l)
            s = out.get(e)
            s = m * c if s is None else s + m * c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _pb_mul(a, b):
    out = {}
    for (i, j), m in a.items():
        for (k, l), mm in b.items():
            e = (i + k, j + l)
            prod = m * mm
            s = out.get(e)
            s = prod if s is None else s + prod
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _affine_solve(rows, rhs, pool):
    """Solve rows*u + rhs = 0 with rational rows and MPoly right sides.

    The right sides ride along as the last column of the row reduction.
    Free unknowns become fresh parameters; unsatisfiable rows become
    constraint polynomials in the parameters.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots = linalg.rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    constraints = [row[ncols] for row in m[len(pivots):] if not row[ncols].is_zero]
    free = [c for c in range(ncols) if c not in pivots]
    u = [None] * ncols
    for f in free:
        u[f] = pool.var(pool.fresh())
    for row, c in zip(m, pivots):
        expr = -row[ncols]
        for f in free:
            if row[f]:
                expr = expr - row[f] * u[f]
        u[c] = expr
    return u, constraints


def _vars_of(mp):
    out = set()
    for e in mp.terms:
        for k, ex in enumerate(e):
            if ex:
                out.add(k)
    return sorted(out)


def _splits_rationally(g):
    residual = g
    for root in rational_roots(g):
        lin = UniPoly([-root, 1])
        while True:
            quo, rem = residual.divmod(lin)
            if rem.is_zero:
                residual = quo
            else:
                break
    return residual.degree() <= 0


def _solve_constraints(cons, depth=0):
    """Rational solutions of a polynomial constraint system.

    Returns (solutions, complete); each solution maps parameter index to
    a rational value, parameters absent from the map stay free.
    """
    cons = [c for c in cons if not c.is_zero]
    for c in cons:
        if c.is_constant:
            return [], True
    if not cons:
        return [{}], True
    if depth > 6:
        return [], False
    for c in cons:
        vs = _vars_of(c)
        if len(vs) == 1:
            v = vs[0]
            g = c.as_unipoly(v)
            complete = _splits_rationally(g)
            out = []
            for root in rational_roots(g):
                rest = [cc.substitute(v, root) for cc in cons]
                sols, comp = _solve_constraints(rest, depth + 1)
                complete = complete and comp
                for s in sols:
                    s = dict(s)
                    s[v] = root
                    out.append(s)
            return out, complete
    allvars = sorted({v for c in cons for v in _vars_of(c)})
    v = allvars[-1]
    withv = [c for c in cons if c.degree_in(v) > 0]
    if len(withv) >= 2:
        try:
            res = mpoly_resultant(withv[0], withv[1], v)
        except DomainError:
            res = None
        if res is not None and not res.is_zero and not res.is_constant:
            return _solve_constraints(cons + [res], depth + 1)
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
        k = atom.degree()
        form = BiPoly(
            {(i, k - i): c for i, c in enumerate(atom.coeffs) if c}
        )
        atoms.append(form)
    return atoms, rep.certified


def _top_candidates(atoms, n):
    """All monic products of atoms with total degree exactly n."""
    out = []

    def rec(idx, current, remaining):
        if remaining == 0:
            out.append(current)
            return
        if idx >= len(atoms):
            return
        deg = int(atoms[idx].total_degree())
        k = 0
        power = current
        while k * deg <= remaining:
            rec(idx + 1, power, remaining - k * deg)
            k += 1
            if k * deg <= remaining:
                power = power * atoms[idx]

    rec(0, BiPoly.one(), n)
    return [p for p in out if p.total_degree() == n]


def _cascade(a_pol, b_pol, d, n, p_top, c_top):
    """Solve delta(p) = c*p level by level below a fixed leading form.

    Returns (solutions, families, complete) where solutions are concrete
    (p, c) pairs and families are (base, directions, c) affine families.
    """
    pool = _ParamPool()
    ad, bd = a_pol.homogeneous_part(d), b_pol.homogeneous_part(d)
    parts_p = {n: _pb_from(p_top, pool)}
    parts_c = {d - 1: _pb_from(c_top, pool)}
    constraints = []
    complete = True
    for s in range(1, n + d):
        deg_eq = n + d - 1 - s
        if deg_eq < 0:
            break
        mons_p = _monomials(n - s) if s <= n else []
        mons_c = _monomials(d - 1 - s) if s <= d - 1 else []
        cols = []
        for (i, j) in mons_p:
            mono = BiPoly.monomial(i, j)
            cols.append(ad * mono.deriv_x() + bd * mono.deriv_y() - c_top * mono)
        for (i, j) in mons_c:
            cols.append(-(BiPoly.monomial(i, j) * p_top))
        g_terms = {}
        for i in range(0, min(s, n) + 1):
            if i == s:
                continue
            part = parts_p.get(n - i)
            if not part:
                continue
            e = d - (s - i)
            if e < 0:
                continue
            ae = a_pol.homogeneous_part(e)
            be = b_pol.homogeneous_part(e)
            if not ae.is_zero:
                g_terms = _pb_add(g_terms, _pb_mul_concrete(_pb_deriv(part, 0), ae))
            if not be.is_zero:
                g_terms = _pb_add(g_terms, _pb_mul_concrete(_pb_deriv(part, 1), be))
        for j in range(0, min(s, d - 1) + 1):
            i = s - j
            if i > n:
                continue
            if i == s and j == 0:
                continue
            if i == 0 and j == s:
                continue
            cpart = parts_c.get(d - 1 - j)
            ppart = parts_p.get(n - i)
            if cpart and ppart:
                g_terms = _pb_add(g_terms, _pb_neg(_pb_mul(cpart, ppart)))
        eq_mons = _monomials(deg_eq)
        rows = [[col.coeff(i, j) for col in cols] for (i, j) in eq_mons]
        zero = pool.const(0)
        rhs = [g_terms.get(e, zero) for e in eq_mons]
        u, cons = _affine_solve(rows, rhs, pool)
        constraints.extend(cons)
        if mons_p:
            parts_p[n - s] = {
                e: m for e, m in zip(mons_p, u[: len(mons_p)]) if not m.is_zero
            }
        if mons_c:
            parts_c[d - 1 - s] = {
                e: m for e, m in zip(mons_c, u[len(mons_p):]) if not m.is_zero
            }
    sols, comp = _solve_constraints(constraints)
    complete = complete and comp
    p_map = {}
    for part in parts_p.values():
        p_map = _pb_add(p_map, part)
    c_map = {}
    for part in parts_c.values():
        c_map = _pb_add(c_map, part)
    solutions, families = [], []
    for sub in sols:
        pm = {e: _substitute_all(m, sub) for e, m in p_map.items()}
        cm = {e: _substitute_all(m, sub) for e, m in c_map.items()}
        pm = {e: m for e, m in pm.items() if not m.is_zero}
        cm = {e: m for e, m in cm.items() if not m.is_zero}
        if any(not m.is_constant for m in cm.values()):
            complete = False
            continue
        c_val = BiPoly({e: m.constant_value() for e, m in cm.items()})
        params = sorted({v for m in pm.values() for v in _vars_of(m)})
        if not params:
            p_val = BiPoly({e: m.constant_value() for e, m in pm.items()})
            solutions.append((p_val, c_val))
            continue
        if any(m.total_degree() > 1 for m in pm.values()):
            complete = False
            continue
        base = BiPoly(
            {e: m.terms.get((0,) * m.nvars, QZERO) for e, m in pm.items()}
        )
        dirs = []
        for v in params:
            dirs.append(BiPoly({e: m.deriv(v).constant_value() for e, m in pm.items()}))
        families.append((base, [dd for dd in dirs if not dd.is_zero], c_val))
    return solutions, families, complete


def _substitute_all(mp, sub):
    for v, val in sub.items():
        mp = mp.substitute(v, val)
    return mp


def _kernel_families(deriv, c0, n):
    """Echelon basis of {p : deg p <= n, delta(p) = c0*p}."""
    mons = []
    for deg in range(n, -1, -1):
        mons.extend(_monomials(deg))
    mons.sort(key=_grlex_key, reverse=True)
    exprs = [
        deriv.apply(BiPoly.monomial(i, j)) - c0 * BiPoly.monomial(i, j)
        for (i, j) in mons
    ]
    eq_set = sorted({e for ex in exprs for e in ex.terms}, key=_grlex_key)
    rows = [[ex.coeff(i, j) for ex in exprs] for (i, j) in eq_set]
    kernel = linalg.nullspace(rows, len(mons))
    if not kernel:
        return []
    echelon, _ = linalg.rref(kernel, len(mons))
    basis = []
    for vec in echelon:
        p = BiPoly({mons[k]: v for k, v in enumerate(vec) if v})
        if not p.is_zero:
            basis.append(p.monic())
    return basis


def _span_key(p, q_):
    """Canonical key for the 2-dimensional span of two polynomials."""
    mons = sorted(set(p.terms) | set(q_.terms), key=_grlex_key, reverse=True)
    rows = [
        [p.coeff(i, j) for (i, j) in mons],
        [q_.coeff(i, j) for (i, j) in mons],
    ]
    ech, _ = linalg.rref(rows, len(mons))
    return tuple(
        tuple((mons[k], v) for k, v in enumerate(row) if v) for row in ech if any(row)
    )


def _order_pair(p, q_):
    """Pencil display order: ascending degree, constants last, then
    graded-lex on leading monomials."""

    def key(poly):
        if poly.is_constant:
            return (1, 0, (0, 0))
        lead = poly.leading_exp()
        return (0, int(poly.total_degree()), tuple(-v for v in _grlex_key(lead)))

    return tuple(sorted((p, q_), key=key))


def _in_span(p, base, direction):
    mons = sorted(set(p.terms) | set(base.terms) | set(direction.terms), key=_grlex_key)
    rows = [
        [base.coeff(i, j), direction.coeff(i, j)] for (i, j) in mons
    ]
    rhs = [p.coeff(i, j) for (i, j) in mons]
    sol, _ = linalg.solve(rows, rhs)
    return sol is not None


def _member_quotient(base, direction, p):
    """p divided by some pencil member base + t*direction (or direction
    itself, the member at t = infinity) that divides it, else None."""
    if not direction.is_constant:
        quot = exact_divide(p, direction)
        if quot is not None:
            return quot
    candidates = {QZERO, QONE}
    m3 = MPoly.from_bipoly(base, 3) + MPoly.var(3, 2) * MPoly.from_bipoly(direction, 3)
    p3 = MPoly.from_bipoly(p, 3)
    for axis in (0, 1):
        if m3.degree_in(axis) and p3.degree_in(axis):
            try:
                res = mpoly_resultant(p3, m3, axis)
            except DomainError:
                continue
            if res.is_zero:
                continue
            other = 1 - axis
            conds = []
            for coeff in res.coeffs_in(other):
                if coeff.is_zero:
                    continue
                try:
                    conds.append(coeff.as_unipoly(2))
                except DomainError:
                    conds = []
                    break
            if conds:
                g = reduce(uni_gcd, conds)
                if not g.is_constant:
                    candidates.update(rational_roots(g))
            break
    for t in candidates:
        member = base + t * direction
        if member.is_constant:
            continue
        quot = exact_divide(p, member)
        if quot is not None:
            return quot
    return None


def _pencil_divisor_check(base, direction, p):
    """True when some member of the pencil divides p."""
    return _member_quotient(base, direction, p) is not None


def _factors_into_members(base, direction, p):
    """True when p is, up to a constant, a product of pencil members."""
    while not p.is_constant:
        quot = _member_quotient(base, direction, p)
        if quot is None:
            return False
        p = quot
    return True


def darboux_search(deriv, bound):
    """All monic Q-irreducible Darboux polynomials of total degree at
    most bound, with pencils for the cofactor-sharing families."""
    if deriv.is_zero:
        raise DomainError("every polynomial is Darboux for the zero derivation")
    if bound < 1:
        raise DomainError("degree bound must be at least 1")
    a_pol, b_pol = deriv.dx, deriv.dy
    d = max(a_pol.total_degree(), b_pol.total_degree())
    d = int(d)
    complete = True
    raw = []  # (p, cofactor) concrete
    families = []  # (base, [directions], cofactor)
    if d == 0:
        basis = _kernel_families(deriv, BiPoly.zero(), bound)
        if basis:
            first = basis[0]
            raw.extend((p, BiPoly.zero()) for p in basis)
            families.append((first, basis[1:], BiPoly.zero()))
    else:
        ad = a_pol.homogeneous_part(d)
        bd = b_pol.homogeneous_part(d)
        big_m = BiPoly.var_x() * bd - BiPoly.var_y() * ad
        if big_m.is_zero:
            h = exact_divide(ad, BiPoly.var_x())
            if d == 1:
                hval = h.constant_value()
                for n in range(1, bound + 1):
                    basis = _kernel_families(deriv, BiPoly.const(n * hval), n)
                    if basis:
                        c0 = BiPoly.const(n * hval)
                        raw.extend((p, c0) for p in basis)
                        if len(basis) > 1:
                            families.append((basis[0], basis[1:], c0))
                atoms = None
            else:
                complete = False
                atoms = [BiPoly.var_x(), BiPoly.var_y()]
        else:
            atoms, atoms_certified = _top_atoms(big_m, d)
            complete = complete and atoms_certified
        if atoms is not None:
            for n in range(1, bound + 1):
                for p_top in _top_candidates(atoms, n):
                    dp = ad * p_top.deriv_x() + bd * p_top.deriv_y()
                    c_top = exact_divide(dp, p_top)
                    if c_top is None:
                        continue
                    try:
                        sols, fams, comp = _cascade(a_pol, b_pol, d, n, p_top, c_top)
                    except DomainError:
                        complete = False
                        continue
                    complete = complete and comp
                    raw.extend(sols)
                    families.extend(fams)
    return _assemble_report(deriv, raw, families, bound, complete)


def _assemble_report(deriv, raw, families, bound, complete):
    all_certs = {}
    for p, c in raw:
        if p.is_zero or p.is_constant:
            continue
        p = p.monic()
        all_certs[frozenset(p.terms.items())] = (p, c)
    pencil_map = {}
    for base, dirs, c in families:
        members = [base] + dirs if not base.is_zero else list(dirs)
        for m in members:
            if not m.is_zero and not m.is_constant:
                mm = m.monic()
                all_certs.setdefault(frozenset(mm.terms.items()), (mm, c))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                _add_pencil(pencil_map, members[i], members[j], c)
    # cofactor-sharing certificates also form pencils
    cert_list = sorted(
        all_certs.values(),
        key=lambda pc: (int(pc[0].total_degree()), _grlex_key(pc[0].leading_exp())),
    )
    for i in range(len(cert_list)):
        for j in range(i + 1, len(cert_list)):
            if cert_list[i][1] == cert_list[j][1]:
                _add_pencil(pencil_map, cert_list[i][0], cert_list[j][0], cert_list[i][1])
    pencils = []
    for (p, q_, c) in pencil_map.values():
        if _proportional(p, q_):
            continue
        if not p.is_constant and not q_.is_constant and not gcd(p, q_).is_constant:
            continue
        pencils.append((p, q_, c))
    pencils.sort(
        key=lambda t: (
            int(max(t[0].total_degree(), t[1].total_degree())),
            _grlex_key(t[0].leading_exp()) if not t[0].is_zero else (0, 0),
        )
    )
    # a pencil whose defining members are products of members of a
    # smaller pencil carries no new information (powers of a first
    # integral): drop it
    primitive_pencils = []
    for (p, q_, c) in pencils:
        deg = int(max(p.total_degree(), q_.total_degree()))
        redundant = any(
            int(max(b.total_degree(), u.total_degree())) < deg
            and _factors_into_members(b, u, p)
            and _factors_into_members(b, u, q_)
            for (b, u, _c) in primitive_pencils
        )
        if not redundant:
            primitive_pencils.append((p, q_, c))
    pencils = primitive_pencils
    kept = []
    for p, c in cert_list:
        if squarefree_part(p) != p:
            continue
        if any(exact_divide(p, kp.p) is not None for kp in kept if kp.p.total_degree() < p.total_degree()):
            continue
        if any(
            max(b.total_degree(), u.total_degree()) <= p.total_degree()
            and _pencil_divisor_check(b, u, p)
            and not _in_span(p, b, u)
            for (b, u, _c) in pencils
        ):
            continue
        kept.append(DarbouxCert(deriv, p, c))
    pencil_certs = [PencilCert(deriv, p, q_, c) for (p, q_, c) in pencils]
    kept = [
        cert
        for cert in kept
        if not any(_in_span(cert.p, pc.p, pc.q) for pc in pencil_certs)
    ]
    return DarbouxReport(kept, pencil_certs, bound, complete)


def _add_pencil(pencil_map, p, q_, c):
    if _proportional(p, q_):
        return
    a, b = _order_pair(p, q_)
    key = _span_key(a, b)
    if key not in pencil_map:
        pencil_map[key] = (a, b, c)


def first_integral_search(deriv, bound):
    """A rational first integral p/q of degree <= bound, or None."""
    report = darboux_search(deriv, bound)
    if report.pencils:
        return report.pencils[0]
    return None


def pencil_members_through(pencil, gens):
    """The pencil members whose curves meet the common zeros of gens."""
    gens = [g for g in gens if not g.is_zero]
    if is_unit_ideal(gens):
        raise DomainError("unit ideal: the variety is empty")
    h3 = MPoly.from_bipoly(pencil.p, 3) + MPoly.var(3, 2) * MPoly.from_bipoly(
        pencil.q, 3
    )
    work = []
    zero_eliminant = False
    for g in gens:
        g3 = MPoly.from_bipoly(g, 3)
        if g3.degree_in(1) > 0 and h3.degree_in(1) > 0:
            try:
                r = mpoly_resultant(g3, h3, 1)
            except DomainError:
                continue
            if r.is_zero:
                zero_eliminant = True
            else:
                work.append(r)
        else:
            work.append(g3)
    if h3.degree_in(1) == 0:
        work.append(h3)
    tpolys = []
    withx = [w for w in work if w.degree_in(0) > 0]
    for w in work:
        if w.degree_in(0) == 0 and w.degree_in(1) == 0:
            try:
                tpolys.append(w.as_unipoly(2))
            except DomainError:
                pass
    for i in range(len(withx)):
        for j in range(i + 1, len(withx)):
            try:
                r = mpoly_resultant(withx[i], withx[j], 0)
            except DomainError:
                continue
            if r.is_zero:
                zero_eliminant = True
                continue
            try:
                tpolys.append(r.as_unipoly(2))
            except DomainError:
                pass
    tpolys = [t for t in tpolys if not t.is_zero]
    if not tpolys:
        # no nontrivial condition in t emerged; verify a sample and report
        for t in (0, 1, 2, 3):
            member = pencil.member(t)
            if member.is_zero or not has_common_zero_with(gens, member):
                break
        else:
            return PencilMembers("all")
        return PencilMembers("finite", [], residual_nonrational=True)
    g = reduce(uni_gcd, tpolys)
    members = []
    residual = False
    if g.is_constant:
        candidates = []
    else:
        candidates = rational_roots(g)
        residual = not _splits_rationally(g)
    for t in sorted(candidates):
        member = pencil.member(t)
        if not member.is_zero and has_common_zero_with(gens, member):
            members.append((t, member))
    if not pencil.q.is_zero and not pencil.q.is_constant:
        if has_common_zero_with(gens, pencil.q):
            members.append((INFINITY, pencil.q))
    if zero_eliminant and not members:
        residual = True
    return PencilMembers("finite", members, residual_nonrational=residual)
