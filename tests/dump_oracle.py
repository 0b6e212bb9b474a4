"""The reader of the canonical text form `igq.poly.dump_generators`
writes, as `--dump` files hold it: the tests read dumps back with it."""

from fractions import Fraction


def load_polynomial(ring, text: str):
    text = text.strip()
    if text == "0":
        return ring.zero
    acc = {}
    for chunk in text.split(" + "):
        parts = chunk.split("*")
        num, den = parts[0].split("/")
        c = Fraction(int(num), int(den))
        exps = [0] * ring.ngens
        for piece in parts[1:]:
            name, k = piece.split("^")
            exps[ring.index(name)] = int(k)
        exps = tuple(exps)
        prev = acc.get(exps)
        acc[exps] = c if prev is None else prev + c
    return ring.poly(acc)


def load_generators(ring, text: str):
    """The polynomials of a generator file, skipping blank and # lines."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(load_polynomial(ring, line))
    return out
