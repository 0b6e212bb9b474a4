"""Exact verification engine for the quantum cohomology of IG(2,2n) and
the Lefschetz exceptional collections on G(2,m) and IG(2,2k).

Everything is computed over exact rationals at desk scale (n <= 5,
k <= 4): ring presentations and their Groebner bases, the spectrum of the
small quantum ring, the first-order big-quantum deformation, the Milnor
algebra match, and the Borel-Bott-Weil Ext profiles of the appendix-style
collections.
"""

import sys

__version__ = "0.1.0"

set_field = object.__setattr__  # stores one field of a Value, past its refusing __setattr__


class Value:
    """Base of igq's immutable records.

    A subclass names its fields, in order, in `__slots__`, and its
    `__init__` validates its arguments and stores each field once through
    `set_field`, since assignment is refused.  Two records are equal when
    they are of the same class with equal fields; the hash is over the
    fields, and the repr reads `Space(kind='gr', param=4)`.  Not a tuple,
    so a record is neither a container nor a `%` argument list.  A cache
    slot is left out of an overriding `_values`, as in `GroebnerBasis`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which revalidates
        return type(self), self._values()


def clear_caches() -> None:
    """Empty every igq memo in place: the BBW lookups and the Ext table of
    `igq.bbw`, the bases and spectrum reports of `igq.presentations`.

    `cli.main` calls it once per invocation, so every run is cold and a
    process holds one run's entries.  Each table is read as its module's
    global at call time, and a module not yet imported is skipped rather
    than loaded.  The dicts are cleared, never replaced, so a reference
    held elsewhere sees them empty; `bbw._ext_cache`, a (space, table)
    pair, is reset whole."""
    bbw = sys.modules.get("igq.bbw")
    if bbw is not None:
        bbw._bbw_cache.clear()
        bbw._ext_cache = (None, {})
    presentations = sys.modules.get("igq.presentations")
    if presentations is not None:
        presentations._basis_cache.clear()
        presentations._spectrum_cache.clear()
