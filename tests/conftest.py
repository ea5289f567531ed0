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


def compose_paths(monkeypatch):
    """Wrap the two paths of ``Polynomial.compose`` for one test: the list
    returned gets ("chain", outer coefficients), ("shift", ...) or, for an
    inner with beta = 0, where the shift runs its scaling alone,
    ("scale", ...) per call."""
    from hodgegap import algebra

    taken = []
    chain, shift = algebra._binomial_chain, algebra._taylor_shift

    def recording_chain(ring, coeffs, alpha):
        taken.append(("chain", tuple(coeffs)))
        return chain(ring, coeffs, alpha)

    def recording_shift(coeffs, beta, alpha):
        taken.append(("shift" if beta else "scale", tuple(coeffs)))
        return shift(coeffs, beta, alpha)

    monkeypatch.setattr(algebra, "_binomial_chain", recording_chain)
    monkeypatch.setattr(algebra, "_taylor_shift", recording_shift)
    return taken


def distinct_field_comparisons(monkeypatch):
    """Wrap ``FiniteField.__eq__`` for one test: the list returned gets
    (self, other) for each comparison of two distinct field objects, the
    ones that an identity check cannot settle."""
    from hodgegap.algebra import FiniteField

    compared = []
    eq = FiniteField.__eq__

    def recording_eq(self, other):
        if other is not self:
            compared.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(FiniteField, "__eq__", recording_eq)
    return compared
