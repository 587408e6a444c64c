"""Frozen value records.

A subclass of `Record` declares its fields as annotated class attributes,
with class-level values as defaults, like a frozen dataclass.  One generic
`__init__` takes the fields by position or keyword, fills in defaults and
then calls `__post_init__`, which may normalise fields through
`object.__setattr__`.  Records compare and hash field-wise within one class,
repr in the dataclass format, and refuse assignment and deletion.
"""

from __future__ import annotations

__all__ = ["Record", "replace"]


class Record:
    """Base class of a frozen value record; see the module docstring."""

    __slots__ = ()

    # the field names in order (a dict used as an ordered set), base
    # classes' fields first, and the defaults by name; not annotated, since
    # annotations declare fields
    _record_names = {}
    _record_defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names, defaults = {}, {}
        for base in reversed(cls.__mro__):
            for name in base.__dict__.get("__annotations__", {}):
                names[name] = None
                defaults.pop(name, None)
                if name in base.__dict__:
                    defaults[name] = base.__dict__[name]
        cls._record_names = names
        cls._record_defaults = defaults

    def __init__(self, *args, **kwargs):
        if args:
            names = list(self._record_names)
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(_arg_error(self, args, kwargs))
            kwargs.update(zip(names, args))
        values = self._record_defaults | kwargs
        if values.keys() != self._record_names.keys():
            raise TypeError(_arg_error(self, (), kwargs))
        if values:  # a record without fields may have no __dict__
            self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._record_names)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _values(r: Record) -> tuple:
    return tuple([getattr(r, name) for name in r._record_names])


def _arg_error(r: Record, args: tuple, kwargs: dict) -> str:
    names, cls = list(r._record_names), type(r).__qualname__
    if len(args) > len(names):
        return f"{cls}() takes {len(names)} positional arguments but {len(args)} were given"
    for name in names[:len(args)]:
        if name in kwargs:
            return f"{cls}() got multiple values for {name!r}"
    for name in kwargs:
        if name not in names:
            return f"{cls}() got an unexpected keyword argument {name!r}"
    missing = [name for name in names if name not in kwargs and name not in r._record_defaults]
    return f"{cls}() missing required argument {missing[0]!r}"


def replace(r: Record, **changes) -> Record:
    """A copy of `r` with the given fields changed, validated anew."""
    for name in r._record_names:
        changes.setdefault(name, getattr(r, name))
    return r.__class__(**changes)
