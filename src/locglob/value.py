"""The base of the package's immutable value classes.

A subclass names its compared fields in `_compare`.  One that only stores
them defines no `__init__` and is built positionally, in `_compare` order;
one that checks its input or derives fields sets each in its own `__init__`
with object.__setattr__.  Constructor, equality and hashing are closures
made once per class: no source is generated or compiled, and no module
beyond `operator` is imported.
"""

from operator import attrgetter


class Value:
    """An immutable value: assigning or deleting an attribute raises
    AttributeError.  Two instances are equal when they are of the same class
    and their `_compare` fields are, compared and hashed as one tuple in
    that order.  Fields outside `_compare` hold data derived from the others
    or caches, and take no part.  A __hash__ the class defines is kept."""

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
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = __hash__
        if "__init__" in cls.__dict__:
            return
        # each slot's own setter passes the frozen __setattr__ by, with no
        # object.__setattr__ lookup per field
        setters = tuple(getattr(cls, name).__set__ for name in names)

        def __init__(self, *values):
            if len(values) != len(setters):
                raise TypeError("%s() takes %d fields (%s), %d given" % (
                    cls.__qualname__, len(setters), ", ".join(names), len(values)))
            i = 0
            for put in setters:     # an index walk: zip would make a pair per field
                put(self, values[i])
                i += 1

        cls.__init__ = __init__

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

