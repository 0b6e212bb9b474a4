"""Buchberger's criterion, the certificate the tests hold every basis to."""

from igq.groebner import normal_form, spoly


def is_groebner(gb) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    els = gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            if not normal_form(spoly(els[i], els[j]), gb).is_zero:
                return False
    return True
