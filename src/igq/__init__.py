"""Exact verification engine for the quantum cohomology of IG(2,2n) and
the Lefschetz exceptional collections on G(2,m) and IG(2,2k).

Everything is computed over exact rationals at desk scale (n <= 5,
k <= 4): ring presentations and their Groebner bases, the spectrum of the
small quantum ring, the first-order big-quantum deformation, the Milnor
algebra match, and the Borel-Bott-Weil Ext profiles of the appendix-style
collections.
"""

__version__ = "0.1.0"
