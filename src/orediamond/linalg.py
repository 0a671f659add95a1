"""Exact linear algebra over Q used by the solvers."""

from .rational import QONE, QZERO, q


def rref(rows, ncols):
    """Reduced row echelon form in the first ncols columns; returns
    (rows, pivot column list, row operations).

    Only those columns are tested for pivots, so further columns may hold
    anything that supports * and - with rationals (an augmented right-hand
    side, for instance).  The row operations are one (r, pr, inv, [(i, f),
    ...]) per pivot: swap rows r and pr, scale row r by inv, subtract f
    times row r from each row i."""
    m = [list(r) for r in rows]
    pivots = []
    ops = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = QONE / m[r][c]
        m[r] = [v * inv if v else v for v in m[r]]
        elim = []
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
                elim.append((i, f))
        ops.append((r, pr, inv, elim))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, ops


def replay(ops, column):
    """The extra column of rows that rref(rows, ncols), which gave ops,
    would have produced, by the same arithmetic without reducing again."""
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
    """Solve A x = rhs over Q.

    Returns (particular, kernel_basis) or (None, kernel_basis) when the
    system is inconsistent.  Vectors are lists of rationals.
    """
    if not a_rows:
        return [], []
    ncols = len(a_rows[0])
    aug = [list(r) + [q(v)] for r, v in zip(a_rows, rhs)]
    m, pivots, _ = rref(aug, ncols)
    kernel = _kernel_basis(m, pivots, ncols)
    # rows below the pivots are zero in A; a nonzero right side there
    # makes the system inconsistent
    if any(row[ncols] for row in m[len(pivots):]):
        return None, kernel
    particular = [QZERO] * ncols
    for i, p in enumerate(pivots):
        particular[p] = m[i][ncols]
    return particular, kernel


def nullspace(a_rows, ncols):
    """Kernel basis of A over Q."""
    m, pivots, _ = rref(a_rows, ncols)
    return _kernel_basis(m, pivots, ncols)
