"""The origin factor as the joint generalized kernel of all the
multiplication matrices at once, on the whole quotient.
`igq.linalg.generalized_kernel` runs the same chain on the generalized
kernel of the first matrix instead; this is its oracle."""

from math import lcm

from igq.linalg import nullspace
from linalg_oracle import dense_rows


def joint_origin_factor(mats, dim: int) -> list:
    """A basis of the joint generalized kernel of the matrices, given as
    rows of (column, entry) and made dense first.

    K_j = {a : m^j a = 0}, for m the maximal ideal of the origin, is the
    kernel of the stacked maps Q M_v, where Q projects away from K_{j-1}.
    The chain grows strictly until it stops at A_0, so it takes at most
    the local length steps.  Each projected row is scaled by the common
    denominator D of the K_{j-1} basis, D M[i] - sum (D u[i]) M[c], which
    keeps integral matrices in ints and leaves the kernel unchanged.
    """
    mats = [dense_rows(M, dim) for M in mats]
    kernel = {}
    while True:
        den = lcm(*(x.denominator for u in kernel.values() for x in u))
        proj = [(c, [x.numerator * (den // x.denominator) for x in u]) for c, u in kernel.items()]
        rows = []
        for M in mats:
            for i in range(dim):
                row = M[i] if den == 1 else [den * a for a in M[i]]
                for c, u in proj:
                    if u[i]:
                        row = [a - u[i] * b for a, b in zip(row, M[c])]
                rows.append(row)
        nxt = nullspace(rows, dim)
        if len(nxt) == len(kernel):
            return list(kernel.values())
        kernel = nxt
