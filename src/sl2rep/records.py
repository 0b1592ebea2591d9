"""Record base classes: equality, repr and hashing over the fields that a
record's own __init__ stores in its instance dict, in order.

A record equals another only of the same class with equal fields, so
FreeGroup(2) != CyclicFinite(2); the repr reads Class(field=value, ...).
These take the place of dataclasses, whose import (with inspect) and
per-class code generation cost a fresh interpreter ~12 ms.
"""


class Record:
    """Mutable and unhashable; __init__ stores the fields and nothing else."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """Immutable and hashable by its fields; assignment raises
    AttributeError, so __init__ stores them with object.__setattr__ or
    into vars(self)."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))
