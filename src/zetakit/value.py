"""The base of the library's immutable value types.

A value type keeps its fields in slots and, once more, as one tuple, `_key`,
which ==, hash and repr read.  Its __init__ stores the fields with `_set`;
after that no attribute can be assigned or deleted.  These classes replace
frozen dataclasses: the decorator generates and execs each class's methods
at import, and the __init__ it generates costs several times a plain one.
Path and PathKind (paths.py) are slotted by hand in the same way.
"""

_set = object.__setattr__


class _Value:
    __slots__ = ("_key",)
    # the field names, in the order of _key: repr reads them, and so does a class pattern
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % item for item in zip(self.__match_args__, self._key))
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, whose arguments are the key
        return self.__class__, self._key
