"""Helpers shared by the test modules."""

import inspect


def replaced(obj, **changes):
    """A new object of obj's type, built by its constructor: each constructor
    parameter named in changes takes the given value, the others are read off
    obj.  Nothing obj has cached is carried over, so the copy builds its own
    cached objects on first read."""
    params = inspect.signature(type(obj)).parameters
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no parameter {sorted(unknown)}")
    return type(obj)(**{name: changes[name] if name in changes else getattr(obj, name)
                        for name in params})
