"""The reader of the canonical text form `igq.poly.dump_generators`
writes, as `--dump` files hold it: the tests read dumps back with it."""

from fractions import Fraction

from igq.poly import Ring, WeightedOrder


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


def load_dump(text: str):
    """(ring, polynomials) of a `--dump` file: the weighted order from the
    header's last field, order=weighted(w1,...), and the variables from
    the first term, which lists every one of them."""
    lines = text.splitlines()
    field, _, name = lines[0].rsplit(" ", 1)[-1].partition("=")
    if not (lines[0].startswith("#") and field == "order" and name.startswith("weighted(")):
        raise ValueError("no weighted order in the header %r" % (lines[0],))
    weights = [int(w) for w in name[len("weighted(") : -1].split(",")]
    names = [piece.split("^")[0] for piece in lines[1].split(" + ")[0].split("*")[1:]]
    ring = Ring(names, WeightedOrder(weights))
    return ring, load_generators(ring, text)
