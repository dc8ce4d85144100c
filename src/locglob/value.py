"""The base of the package's immutable value classes.

A subclass names its compared fields in `_compare` and sets every field in
its own `__init__` with object.__setattr__.  Equality and hashing are two
closures over one attrgetter, made once when the class is defined: no
source is generated or compiled, and no module beyond `operator` is
imported.
"""

from operator import attrgetter


class Value:
    """An immutable value: assigning or deleting an attribute raises
    AttributeError.  Two instances are equal when they are of the same class
    and their `_compare` fields are, compared and hashed as one tuple in
    that order.  Fields outside `_compare` hold data derived from the others
    or caches, and take no part."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._compare
        get = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        # attrgetter of one name returns the bare value, not a 1-tuple
        if len(names) == 1:
            def __hash__(self):
                return hash((get(self),))
        else:
            def __hash__(self):
                return hash(get(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __setstate__(self, state):
        # copy and pickle restore the fields through here: the default
        # state is the instance dict, or a (dict or None, slots) pair
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._compare))
