"""Base classes of the package's records that a tuple cannot hold.

Plain records are ``typing.NamedTuple`` classes. A record that is mutated
(:class:`Record`) or that validates and normalizes its fields on
construction (:class:`Frozen`) derives from these instead. Its fields are
named in ``_fields``, in the order its ``__init__`` takes them; equality,
``repr`` and copying go over those fields.
"""


class Record:
    """A record compared and printed by its fields, of one class only.
    Mutable, so it is not hashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """A record whose ``__init__`` sets each attribute once, through
    :func:`set_field`; every later assignment raises AttributeError.
    Hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# set_field(record, name, value) sets an attribute of a Frozen record
# from its __init__, past the __setattr__ that refuses assignment.
set_field = object.__setattr__
