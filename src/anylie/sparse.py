"""Sparse linear combinations over Q(zeta_m): their one product, printer
and JSON term list.

Polynomials in the enveloping algebra, its braided tensor square and the
anyspace are all finite sums of keys with cyclotomic coefficients, stored
as a dict from key to nonzero `CycNum`.  Each product joins two keys
into one; in the tensor square and the anyspace, factors that cross pick
up the braiding phase of their degrees.  `LinComb.__mul__` sums over
pairs of terms; a subclass says only how two keys multiply (`_times`).
Output is shared the same way: a subclass's `render` passes only how one
key prints and how keys sort to `_render`, and the command line encodes
every combination's terms with `terms_json`.
"""

from __future__ import annotations

from .cyclotomic import CycNum

__all__ = ["LinComb", "accumulate", "nonzero"]


def accumulate(acc: dict, key, val: CycNum):
    """acc[key] += val, storing val itself when the key is new."""
    cur = acc.get(key)
    acc[key] = val if cur is None else cur + val


def nonzero(d: dict) -> dict:
    """The entries of d whose value is not zero."""
    return {k: v for k, v in d.items() if not v.is_zero()}


class LinComb:
    """A sparse map key -> nonzero CycNum with the vector-space operations
    and the product.

    `_context` names the slots, besides `terms`, that a result inherits
    from its left operand; `_shape` is what two operands must share.  A
    subclass with a product defines `_times(a, b)`, the product key of
    keys a and b (None if it is zero) and its phase (None if there is
    none), and `_unit_key`, the key of its unit; it gets `*` and `**`.
    """

    __slots__ = ("terms",)
    _context = ()

    def _raw(self, terms: dict):
        """A combination in self's space wrapping `terms`, which must hold
        only nonzero values under already-normalised keys (internal)."""
        obj = object.__new__(type(self))
        for name in self._context:
            setattr(obj, name, getattr(self, name))
        obj.terms = terms
        return obj

    def _shape(self):
        return None

    def _check_shape(self, other):
        if self._shape() != other._shape():
            raise ValueError("operands live in different spaces: "
                             f"{self._shape()} and {other._shape()}")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> CycNum:
        """The coefficient of `key`, zero when it has no term."""
        return self.terms.get(tuple(key), CycNum.zero())

    def _render(self, key_text, sort_key=None) -> str:
        """'0' for no terms, else each term as '(coefficient)' followed by
        `key_text(key)`, keys sorted by `sort_key`, joined by ' + '."""
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[key]}){key_text(key)}"
                          for key in sorted(self.terms, key=sort_key))

    def terms_json(self, name: str) -> list:
        """The terms in key order as JSON: [{name: list(key), "val": coefficient}]."""
        return [{name: list(key), "val": self.terms[key].to_json()} for key in sorted(self.terms)]

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(out, k, v)
        return self._raw(nonzero(out))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._raw({k: -v for k, v in self.terms.items()})

    def scaled(self, scalar):
        scalar = CycNum.promote(scalar)
        return self._raw(nonzero({k: scalar * v for k, v in self.terms.items()}))

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __mul__(self, other):
        """A scalar scales; each pair of terms of a combination of the same
        shape adds va * vb, times its phase, under their product key."""
        if not isinstance(other, LinComb):
            return self.scaled(other)
        self._check_shape(other)
        times = self._times
        out = {}
        for a, va in self.terms.items():
            for b, vb in other.terms.items():
                key, phase = times(a, b)
                if key is not None:
                    val = va * vb
                    accumulate(out, key, val if phase is None else val * phase)
        return self._raw(nonzero(out))

    def __pow__(self, k: int):
        """Binary exponentiation, starting from the unit."""
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = self._raw({self._unit_key(): CycNum.one()})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms
