"""Plain value classes, so that no command pays for importing ``dataclasses``.

A value class names its fields, in constructor order, in ``__match_args__``,
keeps them in ``__slots__`` and sets them in its own ``__init__`` through
``setfield`` or ``setfields``. The first read of a class's
``__dataclass_fields__`` imports ``dataclasses`` and builds the table, so
``dataclasses.fields``, ``is_dataclass``, ``replace`` and ``asdict`` work.
Nothing in the package calls them; the shim stays because the bench's
tracer (``perfbench/tracing.py``) walks AST nodes with ``dataclasses.fields``.
"""

from operator import attrgetter

setfield = object.__setattr__


def setfields(value, *fields) -> None:
    """Set a frozen value's fields, given in ``__match_args__`` order."""
    for name, field in zip(value.__match_args__, fields):
        setfield(value, name, field)


class _Fields:
    def __get__(self, obj, cls):
        if not cls.__match_args__:
            raise AttributeError("__dataclass_fields__")
        from dataclasses import make_dataclass
        cls.__dataclass_fields__ = make_dataclass(cls.__name__, cls.__match_args__).__dataclass_fields__
        return cls.__dataclass_fields__


class Value:
    """A frozen value: equal to one of its class with equal ``_values`` (its
    fields), hashed by them, printed as ``Kind(field=value, ...)`` and pickled
    through its constructor."""

    __slots__ = ()
    __match_args__ = ()
    __dataclass_fields__ = _Fields()

    def __init_subclass__(cls):
        names = cls.__dict__.get("__match_args__")
        if names:
            get = attrgetter(*names)
            cls._values = property(get if len(names) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r} of a frozen {self.__class__.__name__}")

    __delattr__ = __setattr__
