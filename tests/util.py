"""Shared helpers for the test suite: concise constructors, random
polynomial generators, and independent oracles (Macaulay-matrix ideal
membership, degree-1 Darboux enumeration by direct parametrization, the
Leibniz rule term by term, the skew binomial identities and the module
action of R[theta; delta] on R)."""

from functools import reduce
from math import comb, lcm

from orediamond import BiPoly, DomainError, OrePoly, Q, UniPoly, exact_divide
from orediamond import linalg
from orediamond.multipoly import MPoly, mpoly_resultant
from orediamond.parse import parse_polynomial
from orediamond.poly import rational_roots, uni_gcd


def bi(text):
    return parse_polynomial(text, "poly2")


def uni(text):
    return parse_polynomial(text, "poly1")


def lau(text):
    return parse_polynomial(text, "laurent1")


def random_bipoly(rng, maxdeg=4, nterms=4, maxcoef=10, nonzero=False):
    terms = {}
    for _ in range(nterms):
        i = rng.randrange(maxdeg + 1)
        j = rng.randrange(maxdeg + 1 - i)
        c = Q(rng.randrange(-maxcoef, maxcoef + 1))
        if c:
            terms[(i, j)] = terms.get((i, j), Q(0)) + c
    p = BiPoly({e: c for e, c in terms.items() if c})
    if nonzero and p.is_zero:
        return BiPoly.one()
    return p


def random_unipoly(rng, maxdeg=4, maxcoef=10, nonzero=False, monic=False):
    coeffs = [Q(rng.randrange(-maxcoef, maxcoef + 1)) for _ in range(maxdeg + 1)]
    p = UniPoly(coeffs)
    if monic:
        p = p + UniPoly.monomial(maxdeg, Q(1)) - UniPoly.monomial(maxdeg, p.coeff(maxdeg))
    if (nonzero or monic) and p.is_zero:
        return UniPoly.one()
    return p


def leibniz_delta(deriv, p):
    """delta(p) by the Leibniz rule, term by term over Fractions:
    delta(c x^i y^j) = c i x^(i-1) y^j dx + c j x^i y^(j-1) dy, with no
    polynomial arithmetic of the package."""
    out = {}
    for (i, j), c in p.rational_terms().items():
        if i:
            for (a, b), d in deriv.dx.rational_terms().items():
                out[i - 1 + a, j + b] = out.get((i - 1 + a, j + b), Q(0)) + c * i * d
        if j:
            for (a, b), d in deriv.dy.rational_terms().items():
                out[i + a, j - 1 + b] = out.get((i + a, j - 1 + b), Q(0)) + c * j * d
    return BiPoly(out)


def theta_pow_left(ctx, n, a):
    """Left-normal form of theta^n * a by the binomial identity
    theta^n a = sum_i C(n, i) delta^(n-i)(a) theta^i, with no Ore
    product; delta is leibniz_delta here and in a_theta_pow_right and act."""
    if n < 0:
        raise DomainError("negative theta power")
    ctx.check_element(a)
    powers = [a]
    for _ in range(n):
        powers.append(leibniz_delta(ctx.deriv, powers[-1]))
    return OrePoly([comb(n, i) * powers[n - i] for i in range(n + 1)])


def a_theta_pow_right(ctx, a, n):
    """Left-normal form of the right-side identity
    a*theta^n = sum (-1)^i C(n,i) theta^{n-i} delta^i(a)."""
    if n < 0:
        raise DomainError("negative theta power")
    ctx.check_element(a)
    total = OrePoly.zero()
    val = a
    for i in range(n + 1):
        term = theta_pow_left(ctx, n - i, val)
        sign = -1 if i % 2 else 1
        total = total + OrePoly([sign * comb(n, i) * c for c in term.coeffs])
        val = leibniz_delta(ctx.deriv, val)
    return total


def act(ctx, f, b):
    """The left S-module action (sum a_i theta^i) . b = sum a_i delta^i(b)."""
    ctx.check_element(b)
    total = BiPoly.zero()
    val = b
    for a in f.coeffs:
        total = total + a * val
        val = leibniz_delta(ctx.deriv, val)
    return total


def phi(ctx, f):
    """phi(f) = f . 1 = constant theta-coefficient."""
    return f.coeff(0)


def monomials_upto(d):
    return [(i, j) for t in range(d + 1) for i in range(t + 1) for j in [t - i]]


def cleared(rows):
    """Each row of rationals times the lcm of its denominators, as ints:
    linalg.rref's input for a rational matrix.  Scaling a row keeps the
    pivots, the pivot rows of the reduced form and the kernel."""
    out = []
    for row in rows:
        s = lcm(*(Q(v).denominator for v in row))
        out.append([int(v * s) for v in row])
    return out


def gauss_jordan(rows, ncols):
    """Textbook Gauss-Jordan elimination over Fraction on the first ncols
    columns, every entry of those converted first and the whole row
    updated at each step, in linalg.rref's format: (rows, pivot columns,
    row operations (r, pr, inv, [(i, f), ...])).  The pivot of each
    column is the first nonzero entry at or below the current row.
    Further columns, an augmented right-hand side for instance, are
    eliminated too; their entries may be anything that supports * and -
    with rationals."""
    m = [[Q(v) for v in row[:ncols]] + list(row[ncols:]) for row in rows]
    pivots, ops = [], []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        elim = []
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                elim.append((i, f))
        ops.append((r, pr, inv, elim))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, ops


def macaulay_member(p, gens, bound=8):
    """Independent ideal-membership oracle: exact linear algebra for
    cofactors u_k with deg(u_k * g_k) <= bound, so p = sum u_k g_k."""
    if p.is_zero:
        return True
    if int(p.total_degree()) > bound:
        raise ValueError("p exceeds the oracle degree bound")
    rows_idx = {m: r for r, m in enumerate(monomials_upto(bound))}
    columns = []
    for g in gens:
        dg = int(g.total_degree())
        for (i, j) in monomials_upto(bound - dg):
            prod = BiPoly.monomial(i, j, Q(1)) * g
            col = [Q(0)] * len(rows_idx)
            for exp, c in prod.rational_terms().items():
                col[rows_idx[exp]] = c
            columns.append(col)
    nrows = len(rows_idx)
    matrix = [[columns[c][r] for c in range(len(columns))] for r in range(nrows)]
    rhs = [Q(0)] * nrows
    for exp, c in p.rational_terms().items():
        rhs[rows_idx[exp]] = c
    sol, _ = linalg.solve(matrix, rhs)
    return sol is not None


def substitute_poly(p, i, value):
    """p with variable i replaced by value, an MPoly of the same arity."""
    out = MPoly.zero(p.nvars)
    for k, c in enumerate(p.coeffs_in(i)):
        out = out + c * value**k
    return out


def _roots_of(polys):
    g = reduce(uni_gcd, polys)
    if g.is_constant:
        return []
    return rational_roots(g)


def _rational_points_2var(cons):
    """Common rational zeros of bivariate constraint polynomials over
    variables (s, t); returns (points, infinite) where infinite means a
    positive-dimensional solution set was (or may have been) detected."""
    cons = [c for c in cons if not c.is_zero]
    if not cons:
        return [], True
    if any(c.is_constant for c in cons):
        return [], False  # a nonzero constant constraint: no solutions
    s_polys = [c.as_unipoly(0) for c in cons if c.degree_in(1) == 0]
    dep_t = [c for c in cons if c.degree_in(1) > 0]
    for i in range(len(dep_t)):
        for j in range(i + 1, len(dep_t)):
            r = mpoly_resultant(dep_t[i], dep_t[j], 1)
            if not r.is_zero and r.degree_in(0) > 0:
                s_polys.append(r.as_unipoly(0))
    if not s_polys:
        # the constraints share a curve of solutions, or a single mixed
        # constraint remains: the oracle cannot enumerate finitely
        return [], True
    points = []
    infinite = False
    for s0 in sorted(set(_roots_of(s_polys))):
        rem = [c.substitute({0: s0}) for c in cons]
        rem = [c for c in rem if not c.is_zero]
        if not rem:
            infinite = True
            continue
        if any(c.degree_in(1) == 0 for c in rem):
            continue  # a nonzero constant obstruction after substitution
        for t0 in sorted(set(_roots_of([c.as_unipoly(1) for c in rem]))):
            points.append((s0, t0))
    return points, infinite


def degree1_darboux_oracle(deriv):
    """All monic degree-1 Darboux polynomials with their cofactors, by
    direct parametrization p = x + s*y + t and p = y + t plus resultant
    elimination.  Returns (solutions, infinite_family)."""
    solutions = []
    infinite = False

    def record(p):
        c = exact_divide(deriv.apply(p), p)
        if c is not None:
            pair = (p.monic(), c)
            if pair not in solutions:
                solutions.append(pair)

    # family p = y + t: need (y + t) | delta(y)
    dy4 = MPoly.from_bipoly(deriv.dy, 4)  # vars x, y, s, t
    sub = substitute_poly(dy4, 1, -MPoly.var(4, 3))
    cons_t = [c for c in sub.coeffs_in(0) if not c.is_zero]
    if not cons_t:
        infinite = True
        record(BiPoly.var_y())
        record(BiPoly.var_y() + BiPoly.one())
    else:
        t_polys = []
        solvable = True
        for c in cons_t:
            if c.degree_in(3) == 0:
                solvable = False
                break
            t_polys.append(c.as_unipoly(3))
        if solvable:
            for t0 in sorted(set(_roots_of(t_polys))):
                record(BiPoly.var_y() + BiPoly.const(t0))

    # family p = x + s*y + t: need p | delta(x) + s*delta(y)
    s_var, t_var = MPoly.var(4, 2), MPoly.var(4, 3)
    img = MPoly.from_bipoly(deriv.dx, 4) + s_var * MPoly.from_bipoly(deriv.dy, 4)
    sub = substitute_poly(img, 0, -(s_var * MPoly.var(4, 1) + t_var))
    cons = []
    for c in sub.coeffs_in(1):
        if not c.is_zero:
            cons.append(MPoly(2, {(es, et): v for (_, _, es, et), v in c.rational_terms().items()}))
    if not cons:
        infinite = True
        record(BiPoly.var_x())
        record(BiPoly.var_x() + BiPoly.var_y())
    else:
        points, inf2 = _rational_points_2var(cons)
        infinite = infinite or inf2
        for s0, t0 in points:
            record(BiPoly.var_x() + s0 * BiPoly.var_y() + BiPoly.const(t0))
    return solutions, infinite


def in_pencil_span(p, pencil):
    """True when p is a rational combination of the pencil's members."""
    mons = sorted(set(p.terms) | set(pencil.p.terms) | set(pencil.q.terms))
    rows = [[pencil.p.coeff(i, j), pencil.q.coeff(i, j)] for (i, j) in mons]
    rhs = [p.coeff(i, j) for (i, j) in mons]
    sol, _ = linalg.solve(rows, rhs)
    return sol is not None
