"""Exact verification engine for the quantum cohomology of IG(2,2n) and
the Lefschetz exceptional collections on G(2,m) and IG(2,2k).

Everything is computed over exact rationals at desk scale (n <= 5,
k <= 4): ring presentations and their Groebner bases, the spectrum of the
small quantum ring, the first-order big-quantum deformation, the Milnor
algebra match, and the Borel-Bott-Weil Ext profiles of the appendix-style
collections.

`import igq` runs only this file.  Every submodule but `cli` and `report`
is deferred: it is registered in `sys.modules`, and bound here as an
attribute of the package, when `igq` is imported, but its code is compiled
and run only on its first attribute access (`importlib.util.LazyLoader`).
The two halves of the paper share no code, so `igq dcat` runs `bbw` alone
and `igq qh` runs the polynomial stack and never `bbw`.  Binding each one
here is what keeps `from . import bbw` from loading it at once.

Every memo table of igq is a dict made by `memo()`, which registers it;
`clear_caches()` empties each registered table in place.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

set_field = object.__setattr__  # stores one field of a Value, past its refusing __setattr__
_memos = []  # every table made by memo()


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


_DEFERRED = (
    "bbw", "deformation", "groebner", "linalg", "poly", "presentations", "unfolding", "univariate"
)


def _defer(name: str) -> None:
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # runs nothing yet
    globals()[name] = module


for _name in _DEFERRED:
    _defer(_name)
del _name


def memo() -> dict:
    """A new, empty memo table, registered for `clear_caches`.  A module
    makes its tables when its code runs, so a deferred module that has not
    run has none to clear.  A plain dict: every lookup is a bare `get`."""
    table = {}
    _memos.append(table)
    return table


def clear_caches() -> None:
    """Empty every `memo()` table in place.  `cli.main` calls it once per
    invocation, so every run is cold and a process holds one run's
    entries.  The tables are cleared, never replaced, so a reference held
    elsewhere sees them empty.  It imports nothing and runs no module."""
    for table in _memos:
        table.clear()
