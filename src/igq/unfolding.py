"""The A-type match: the quantum origin factor against the germ x^n.

The quantum side produces a local algebra at the origin with an embedding
dimension and a length.  A one-variable germ f has the invariant pair
(Hessian corank, Milnor number); a corank-1 germ with Milnor number mu is
the A_mu singularity x^(mu+1) (Arnold, Gusein-Zade & Varchenko,
*Singularities of Differentiable Maps* I, ch. 2), and in the corank <= 1
regime the pair pins the local algebra (K[eps]/(eps^mu) is the only
candidate).
"""

from __future__ import annotations

from .presentations import decompose_spectrum


def germ_pair(f) -> tuple:
    """(Hessian corank, Milnor number) at 0 of the one-variable germ with
    dense coefficient list f = [c_0, c_1, ...].

    The Milnor number is the length of Q[x]_(x)/(f'), which is the order
    of f' at 0: f' = x^mu * u with u(0) != 0, a unit of the local ring.
    The Hessian is the 1 x 1 matrix (f''(0)) = (2 c_2).  Requires f(0) = 0
    and an isolated singularity (f' != 0).
    """
    if f and f[0]:
        raise ValueError("germ must vanish at the origin")
    mu = next((i - 1 for i in range(1, len(f)) if f[i]), None)
    if mu is None:
        raise ValueError("non-isolated singularity: f' = 0")
    return (0 if len(f) > 2 and f[2] else 1), mu


def match_quantum_factor(n: int) -> dict:
    """Match the quantum ring's origin factor against the one-variable germ
    x^n: both must have invariant pair (embedding dimension, length) =
    (1, n-1), pinning the factor to the A_{n-1} Milnor algebra.  For n = 2
    both are (0, 1): a reduced point and the Morse germ A_1.

    The analytic convergence hypothesis behind the unfolding statement is
    not machine-checkable; only these algebraic consequences are verified.
    """
    spectrum = decompose_spectrum(n)
    quantum = (spectrum.tangent_dim_origin, spectrum.local_length_origin)
    germ = germ_pair([0] * n + [1])
    ok = quantum == germ
    return {
        "n": n,
        "quantum_pair": quantum,
        "germ_pair": germ,
        "ok": ok,
        "label": "A%d" % germ[1] if ok else None,
        "scope": "algebraic invariants only; convergence hypothesis not machine-checkable",
    }
