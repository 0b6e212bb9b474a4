"""Ring homomorphisms by term-by-term substitution: the oracle the tests
check the relation builder and the coordinate changes against."""

from fractions import Fraction

from igq.poly import RingMismatch


def substitute(f, target, images):
    """Send each variable of f's ring to its image in `target`.

    Variables without an explicit image map to the same-named variable of
    the target ring (which must exist).
    """
    table = []
    for name in f.ring.names:
        if name in images:
            img = images[name]
            if isinstance(img, (int, Fraction)):
                img = target.const(img)
            if img.ring != target:
                raise RingMismatch("image of %s not in target ring" % name)
            table.append(img)
        else:
            table.append(target.var(name))
    out = target.zero
    for e, c in f.terms:
        term = target.const(c)
        for img, exp in zip(table, e):
            if exp:
                term = term * img**exp
        out = out + term
    return out
