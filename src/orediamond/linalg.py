"""Exact linear algebra over Q used by the solvers.

rref eliminates on ints: each row is held as int numerators over one
positive int scale and updated fraction-free, as in Bareiss, Math. Comp.
22 (1968).  Gauss-Jordan also clears above the pivot, so a row is divided
by the gcd of its numerators and scale after each step rather than by the
previous pivot.  A row whose entries are all ints is taken as it is, over
scale 1, with no pass over denominators; the Darboux cascade's level
matrices are such rows for an integer derivation.  An elimination step
changes a row only where the pivot row is nonzero, besides scaling it.
The rows it returns, and the row operations replay needs, are read off
those ints: a row of scale 1 is returned as its ints, with no Fraction
built, any other as Fractions.

The verbs run rref, replay and nullspace.  linalg is not exported;
solve stays as a target of orebench's tracer (layer linalg) and as the
solver of the oracles in tests/util.py.
"""

from math import gcd, lcm

from .rational import Q, QONE, QZERO, q


def rref(rows, ncols):
    """Reduced row echelon form of the first ncols columns of rows;
    returns (rows, pivot column list, row operations).

    Further columns are left out; replay carries a right-hand side, or
    any column whose entries support * and - with rationals.  The row
    operations are one (r, pr, inv, [(i, f), ...]) per pivot: swap rows
    r and pr, scale row r by inv, subtract f times row r from each row i.

    The first ncols columns are eliminated on ints: row i stands for
    nums[i] / scales[i], so the pivot order and the rationals of the
    Fraction elimination come out unchanged.  In a returned row those
    columns hold ints when all of them are integers (the row's scale is
    1, its numerators and scale being coprime), else Fractions; the two
    compare and hash alike.  The input rows are left unchanged."""
    nums, scales = [], []
    for row in rows:
        left = row[:ncols]
        if all(type(v) is int for v in left):
            s = 1
        else:
            s = lcm(*(v.denominator for v in left))
            left = [v.numerator * (s // v.denominator) for v in left]
        nums.append(left)
        scales.append(s)
    n = len(nums)
    pivots = []
    ops = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, n):
            if nums[i][c]:
                pr = i
                break
        if pr is None:
            continue
        nums[r], nums[pr] = nums[pr], nums[r]
        scales[r], scales[pr] = scales[pr], scales[r]
        piv = nums[r]
        p = piv[c]
        inv = Q(scales[r], p)
        # the scaled row is piv / p; keep p positive and piv primitive
        g = gcd(*piv) if p > 0 else -gcd(*piv)
        if g != 1:
            piv = nums[r] = [v // g for v in piv]
            p //= g
        scales[r] = p
        # the pivot row is zero left of c
        support = [(j, b) for j, b in enumerate(piv[c:], c) if b]
        elim = []
        for i in range(n):
            row = nums[i]
            f = row[c]
            if f and i != r:
                si = scales[i]
                # row/si - (f/si)*(piv/p) = (p*row - f*piv) / (p*si); the
                # rows are rref's own lists, so one is updated in place
                new = [p * a for a in row] if p != 1 else row
                for j, b in support:
                    new[j] -= f * b
                s = p * si
                g = gcd(s, *new)
                if g != 1:
                    new = [v // g for v in new]
                    s //= g
                nums[i], scales[i] = new, s
                elim.append((i, Q(f, si)))
        ops.append((r, pr, inv, elim))
        pivots.append(c)
        r += 1
        if r == n:
            break
    m = [row if s == 1 else [Q(v, s) if v else QZERO for v in row] for row, s in zip(nums, scales)]
    return m, pivots, ops


def replay(ops, column):
    """The column after rref's row operations ops: the right-hand side that
    eliminating the rows augmented by column would give, by the same
    arithmetic without reducing again."""
    col = list(column)
    for r, pr, inv, elim in ops:
        col[r], col[pr] = col[pr], col[r]
        b = col[r]
        if b:
            b = col[r] = b * inv
            for i, f in elim:
                col[i] = col[i] - f * b
    return col


def _kernel_basis(m, pivots, ncols):
    """Kernel basis read off a reduced row echelon form, one vector per
    free column."""
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [QZERO] * ncols
        vec[f] = QONE
        for i, p in enumerate(pivots):
            vec[p] = -m[i][f]
        kernel.append(vec)
    return kernel


def solve(a_rows, rhs):
    """Solve A x = rhs over Q; no verb runs it, a tracer target.

    Returns (particular, kernel_basis) or (None, kernel_basis) when the
    system is inconsistent.  Vectors are lists of rationals, each an int
    or a Fraction, as rref returns them.
    """
    if not a_rows:
        return [], []
    ncols = len(a_rows[0])
    m, pivots, ops = rref(a_rows, ncols)
    kernel = _kernel_basis(m, pivots, ncols)
    b = replay(ops, map(q, rhs))
    # rows below the pivots are zero in A; a nonzero right side there
    # makes the system inconsistent
    if any(b[len(pivots):]):
        return None, kernel
    particular = [QZERO] * ncols
    for i, p in enumerate(pivots):
        particular[p] = b[i]
    return particular, kernel


def nullspace(a_rows, ncols):
    """Kernel basis of A over Q."""
    m, pivots, _ = rref(a_rows, ncols)
    return _kernel_basis(m, pivots, ncols)
