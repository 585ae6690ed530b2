"""The base class of the package's records that a tuple cannot hold.

Plain records are ``typing.NamedTuple`` classes, and none is mutable. A
record that validates and normalizes its fields on construction derives
from :class:`Frozen` instead. Its fields are named in ``_fields``, in
the order its ``__init__`` takes them; equality, hash, ``repr`` and
copying go over those fields.
"""


class Frozen:
    """A record compared, hashed and printed by its fields, of one class
    only. Its ``__init__`` sets each attribute once, through
    :func:`set_field`; every later assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# set_field(record, name, value) sets an attribute of a Frozen record
# from its __init__, past the __setattr__ that refuses assignment.
set_field = object.__setattr__
