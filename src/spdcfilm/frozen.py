"""The two bases of the package's records, its ``@dataclass`` classes.

``dataclasses`` writes each method it adds as source text and ``exec``s it
when the class is made, at import, where no bytecode cache can hold it:
``frozen=True`` adds ``__setattr__`` and ``__delattr__``, ``repr=True``
``__repr__``, and ``eq=True`` with ``frozen`` ``__eq__`` and ``__hash__``. A
record is ``@dataclass(eq=False, repr=False)`` on one of these bases instead,
so the decorator generates its ``__init__`` alone, and the base behaves as
those methods did:

* a :class:`Record` is frozen: the generated ``__init__`` sets each field
  once, and any later assignment or deletion raises ``FrozenInstanceError``
  (``__post_init__`` sets through ``object.__setattr__``), an ndarray as a
  read-only array whose memory no other array shares (``read_only``). Its repr is
  ``dataclasses``' ``Name(field=value, ...)``, and it compares and hashes by
  identity, as with ``eq=False``;
* a :class:`Value` is a record that equals an instance of its own class with
  an equal field tuple, and hashes as that tuple.

``dataclasses.fields``, ``replace`` and ``asdict`` apply to both.
"""

import functools
import operator
from dataclasses import FrozenInstanceError, fields

import numpy as np


@functools.cache
def _layout(cls) -> tuple:
    """(repr template, field tuple getter) of a record class, made on first use:
    ``template % getter(record)`` is the repr ``dataclasses`` writes."""
    names = [f.name for f in fields(cls)]
    template = f"{cls.__qualname__}({', '.join(f'{name}=%r' for name in names)})"
    values = operator.attrgetter(*names)
    if len(names) == 1:  # the getter of one name returns its value, not a 1-tuple
        return template, lambda record: (values(record),)
    return template, values


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` if it is read-only and owns its memory, else a read-only copy of it."""
    if not a.flags.owndata or a.flags.writeable:
        a = np.array(a)
        a.flags.writeable = False
    return a


class Record:
    """A frozen record, compared and hashed by identity."""

    def __setattr__(self, name, value):
        # the generated __init__ sets each field once; nothing sets another name
        attributes = self.__dict__
        if name in attributes or name not in self.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        attributes[name] = read_only(value) if isinstance(value, np.ndarray) else value

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        template, values = _layout(type(self))
        return template % values(self)


class Value(Record):
    """A frozen record, compared and hashed by its field tuple."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = _layout(type(self))[1]
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_layout(type(self))[1](self))
