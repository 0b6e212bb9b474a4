"""Two oracles of the spectrum split: the joint generalized kernel of the
multiplication matrices computed on dense rows, whose dimension
`igq.groebner.local_length` finds by Nakayama, and QUANTUM_II's
two-variable core at q = 1 from its closed form, which
`igq.presentations.decompose_spectrum` reads off the weighted basis.
Also the split of any basis with its variables as the coordinates."""

from math import lcm

from igq.groebner import Ideal
from igq.poly import Ring
from igq.presentations import split_spectrum
from linalg_oracle import dense_rows, nullspace


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


def core_ideal(n: int):
    """QUANTUM_II's core at q = 1: the ideal (R1, R2) of Q[a1, a2] and the
    images beta_1 .. beta_(n-2) of b_1 .. b_(n-2).

    The x^(2k) coefficient of the II-identity, b_k + (2a2 - a1^2) b_(k-1)
    + a2^2 b_(k-2) with b_0 = 1 and b_(-1) = 0, gives b_k = beta_k =
    (a1^2 - 2a2) beta_(k-1) - a2^2 beta_(k-2) for k <= n - 2; the
    coefficients of x^(2n-2) and x^(2n), with q = 1, become
    R1 = (2a2 - a1^2) beta_(n-2) + a2^2 beta_(n-3) and
    R2 = a2^2 beta_(n-2) + a1.
    """
    ring = Ring(("a1", "a2"))
    a1, a2 = ring.gens
    beta = [ring.zero, ring.one]  # beta_(-1), beta_0
    for _ in range(n - 2):
        beta.append((a1**2 - 2 * a2) * beta[-1] - a2**2 * beta[-2])
    r1 = (2 * a2 - a1**2) * beta[-1] + a2**2 * beta[-2]
    return Ideal(ring, [r1, a2**2 * beta[-1] + a1]), beta[2:]


def split_on_variables(gb):
    """`split_spectrum` with the ring's variables as the coordinates, so
    that the forms are linear: 1*x + 2*y + ..."""
    return split_spectrum(gb, dict(zip(gb.ring.names, gb.ring.gens)))
