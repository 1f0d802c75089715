"""What every layer shares and the CLI needs before it loads any of them.

The code family names that `code build --family` offers, the two errors that
`rankinv` turns into exit code 1 besides ValueError and OSError, and Record,
the base of the package's immutable value types, which builds, compares,
hashes and prints a record from its __slots__.  codes re-exports the
family names and the errors, where callers have always found them.
"""

FAMILIES = ("Gabidulin", "Twisted", "GeneralizedTwisted", "NewGabI", "NewGabII")


class BuildError(ValueError):
    """A CodeSpec violates a construction precondition."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration would exceed its configured cap."""


_set = object.__setattr__  # how a Record, or a subclass's own __init__, sets a slot


class Record:
    """Base of an immutable value type: its fields are the subclass's
    __slots__, in order.  Assigning or deleting an attribute raises
    AttributeError; an __init__ of its own (one that validates or
    normalises) sets its slots through base._set.

    Record gives every subclass the rest: __init__ binds the fields by
    position or keyword, with the class's _defaults for the ones left out;
    __eq__ (same class only), __hash__ and a dataclass-style __repr__ run
    over the fields, or over the class's _compared subset when it names one.
    Plain code, so a record needs no import of dataclasses."""

    __slots__ = ()
    _defaults = {}  # field name -> value when a caller leaves it out
    _compared = None  # the fields ==, hash and repr read; None: every one

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) == len(names) and not kwargs:
            for name, value in zip(names, args):
                _set(self, name, value)
            return
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected field {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls}() got multiple values for field {name!r}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls}() missing field {name!r}")
            _set(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared or self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared or self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots here: (None, {slot: value})
        for name, value in state[1].items():
            _set(self, name, value)
