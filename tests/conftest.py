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
    """Wrap the two steps of ``Polynomial.compose`` for one test: the list
    returned gets ("chain", outer coefficients) per binomial chain and
    ("scale", coefficients) per scaling by powers, in call order."""
    from hodgegap import algebra

    taken = []
    chain, scale = algebra._binomial_chain, algebra._scale_powers

    def recording_chain(ring, coeffs, alpha):
        taken.append(("chain", tuple(coeffs)))
        return chain(ring, coeffs, alpha)

    def recording_scale(coeffs, r):
        taken.append(("scale", tuple(coeffs)))
        return scale(coeffs, r)

    monkeypatch.setattr(algebra, "_binomial_chain", recording_chain)
    monkeypatch.setattr(algebra, "_scale_powers", recording_scale)
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
