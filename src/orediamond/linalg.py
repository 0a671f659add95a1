"""Exact linear algebra over Q used by the solvers."""

from .rational import QONE, QZERO, q


def rref(rows, ncols):
    """Reduced row echelon form in the first ncols columns; returns
    (rows, pivot column list).

    Only those columns are tested for pivots, so further columns may hold
    anything that supports * and - with rationals (an augmented right-hand
    side, for instance).
    """
    m = [list(r) for r in rows]
    pivots = []
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
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


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
    m, pivots = rref(aug, ncols)
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
    m, pivots = rref(a_rows, ncols)
    return _kernel_basis(m, pivots, ncols)
