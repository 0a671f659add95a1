"""Exact linear algebra over Q used by the solvers.

rref eliminates int rows: each row is held as int numerators over one
positive int scale, 1 at the start, and updated fraction-free, as in
Bareiss, Math. Comp. 22 (1968).  Gauss-Jordan also clears above the
pivot, so a row is divided by the gcd of its numerators and scale after
each step rather than by the previous pivot.  The Darboux search, run
on an integral field, builds int rows, and solve clears denominators.
An elimination step changes a row only where the pivot row is nonzero,
besides scaling it.  rref pivots on the first ncols columns and
eliminates every column of a row, so a right-hand side rides along as
one more column, as level 1 of the cascade and solve give theirs.  The
rows it returns are read off those ints: a row of scale 1 is returned as
its ints, with no Fraction built, any other as Fractions.  Its row
operations are ints too, and replay, which carries a right side that is
no int column through them, builds their rationals only when it runs.

The verbs run rref, replay and nullspace.  linalg is not exported;
solve stays as a target of orebench's tracer (layer linalg) and as the
solver of the oracles in tests/util.py.
"""

from math import gcd, lcm

from .rational import Q, QONE, QZERO, q


def rref(rows, ncols):
    """Reduced row echelon form of rows, pivoting on the first ncols
    columns; returns (rows, pivot column list, row operations).

    The rows hold ints.  Further columns are eliminated with the first
    ncols: as the pivot choice depends on those alone, an augmented
    right-hand side comes out as Gauss-Jordan on the augmented rows, or
    replay, gives it.  replay carries any other column, an MPoly right
    side for instance, by the row operations, one (r, pr, s, p, [(i, f,
    s_i), ...]) of ints per pivot: swap rows r and pr, scale row r by
    s/p, subtract f/s_i times row r from each row i.

    Every column is eliminated on ints: row i stands for nums[i] /
    scales[i], so the pivot order and the rationals of the Fraction
    elimination come out unchanged.  A returned row holds ints when all
    of its entries are integers (the row's scale is 1, its numerators and
    scale being coprime), else Fractions; the two compare and hash alike.
    The input rows are left unchanged."""
    nums, scales = [list(row) for row in rows], [1] * len(rows)
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
        op = (r, pr, scales[r], p)  # scale by s/p, before p and the scale change
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
                elim.append((i, f, si))
        ops.append((*op, elim))
        pivots.append(c)
        r += 1
        if r == n:
            break
    m = [row if s == 1 else [Q(v, s) if v else QZERO for v in row] for row, s in zip(nums, scales)]
    return m, pivots, ops


def replay(ops, column):
    """The column after rref's row operations ops: the right-hand side that
    eliminating the rows augmented by column would give, by the same
    arithmetic without reducing again.  Each op's rationals are built
    here, from its ints."""
    col = list(column)
    for r, pr, s, p, elim in ops:
        col[r], col[pr] = col[pr], col[r]
        b = col[r]
        if b:
            b = col[r] = b * Q(s, p)
            for i, f, si in elim:
                col[i] = col[i] - Q(f, si) * b
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
    # rhs is eliminated as one more column, each row cleared of its denominators
    rows = [[*row, q(v)] for row, v in zip(a_rows, rhs)]
    dens = [lcm(*(v.denominator for v in row)) for row in rows]
    m, pivots, _ = rref([[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, dens)], ncols)
    kernel = _kernel_basis(m, pivots, ncols)
    # rows below the pivots are zero in A; a nonzero right side there
    # makes the system inconsistent
    if any(row[ncols] for row in m[len(pivots):]):
        return None, kernel
    particular = [QZERO] * ncols
    for row, p in zip(m, pivots):
        particular[p] = row[ncols]
    return particular, kernel


def nullspace(a_rows, ncols):
    """Kernel basis of A over Q, A's rows holding ints."""
    m, pivots, _ = rref(a_rows, ncols)
    return _kernel_basis(m, pivots, ncols)
