"""Milnor algebras of isolated hypersurface germs and the A-type match.

The quantum side produces a local algebra at the origin with an embedding
dimension and a length; a corank-1 germ with the same Milnor number has
the same invariant pair, and in the corank <= 1 regime that pair pins the
local algebra (K[eps]/(eps^mu) is the only candidate).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import INFINITE, Ideal, buchberger, quotient_dimension, standard_monomials
from .linalg import corank
from .poly import Polynomial
from .presentations import decompose_spectrum


@dataclass(frozen=True)
class GermData:
    milnor_number: int
    corank: int
    monomial_basis: tuple

    def __post_init__(self):
        if self.milnor_number != len(self.monomial_basis):
            raise ValueError("Milnor number must equal the basis size")


def milnor_data(f: Polynomial) -> GermData:
    """Quotient basis of the Jacobian ideal and the Hessian corank at 0.

    Requires f(0) = 0 and an isolated singularity (finite Milnor number).
    """
    ring = f.ring
    names = list(ring.names)
    if f.constant_coeff != 0:
        raise ValueError("germ must vanish at the origin")
    jac = Ideal(ring, [f.derivative(v) for v in names])
    gb = buchberger(jac)
    dim = quotient_dimension(gb)
    if dim is INFINITE:
        raise ValueError("non-isolated singularity: infinite Milnor algebra")
    basis = tuple(standard_monomials(gb))
    hess = []
    for v in names:
        row = []
        dv = f.derivative(v)
        for w in names:
            row.append(dv.derivative(w).constant_coeff)
        hess.append(row)
    return GermData(milnor_number=dim, corank=corank(hess, len(names)), monomial_basis=basis)


def classify_corank1(mu: int, corank: int = 1) -> str:
    """The A-series label: the only corank-1 germ with Milnor number mu."""
    if corank != 1:
        raise ValueError("classification requires corank 1 (got %d)" % corank)
    if mu < 1:
        raise ValueError("Milnor number must be positive")
    return "A%d" % mu


def match_quantum_factor(n: int) -> dict:
    """Match the quantum ring's origin factor against the one-variable germ
    x^n: both must have invariant pair (embedding dimension, length) =
    (1, n-1) for n >= 3, pinning the factor to the A_{n-1} Milnor algebra.

    For n = 2 the origin factor is a reduced point (length 1) and the germ
    is Morse (corank 0); the label A_1 folds into the reduced-point count.

    The analytic convergence hypothesis behind the unfolding statement is
    not machine-checkable; only these algebraic consequences are verified.
    """
    from .poly import Ring

    spectrum = decompose_spectrum(n)
    ring = Ring(("x",))
    (x,) = ring.gens
    germ = milnor_data(x**n)
    report = {
        "n": n,
        "quantum_pair": (spectrum.tangent_dim_origin, spectrum.local_length_origin),
        "germ_pair": (germ.corank, germ.milnor_number),
        "scope": "algebraic invariants only; convergence hypothesis not machine-checkable",
    }
    if n >= 3:
        report["ok"] = (
            report["quantum_pair"] == (1, n - 1)
            and report["germ_pair"] == (1, n - 1)
        )
        report["label"] = classify_corank1(n - 1) if report["ok"] else None
    else:
        report["ok"] = (
            report["quantum_pair"] == (0, 1) and report["germ_pair"] == (0, 1)
        )
        report["label"] = "A1" if report["ok"] else None
        report["degenerate"] = "origin factor is itself a reduced point"
    return report
