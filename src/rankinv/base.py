"""What every layer shares and the CLI needs before it loads any of them.

The code family names that `code build --family` offers, the two errors that
`rankinv` turns into exit code 1 besides ValueError and OSError, and Record,
the base of the package's immutable value types.  codes re-exports the
family names and the errors, where callers have always found them.
"""

FAMILIES = ("Gabidulin", "Twisted", "GeneralizedTwisted", "NewGabI", "NewGabII")


class BuildError(ValueError):
    """A CodeSpec violates a construction precondition."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration would exceed its configured cap."""


class Record:
    """Base of an immutable value type with __slots__: assigning or deleting
    an attribute raises AttributeError, so a subclass sets its slots in
    __init__ through object.__setattr__.  Each subclass writes its own
    __init__, __eq__ (by class and compared fields), __hash__ and __repr__:
    plain code, which builds faster than a frozen dataclass and needs no
    import of dataclasses."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots here: (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
