"""A memo whose lifetime is one top-level call (`run_verify` or `run_query`).

A key is a plain tuple whose leaves are ints, strs, floats, complexes, None
and types, so CPython hashes and compares it in C: a Fraction keys as its
type, numerator and denominator, and a character, datum, space, field or
algebra as its `memo_key`, the types and keys of its fields.  Every leaf
carries its type: t = 1/2 and t = 0.5+0j are equal, yet print `s+1/2` and
`s+[0.5+0.0i]`.  Each scope and each thread has its own memo; outside a
scope nothing is kept.
"""

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields
from fractions import Fraction

_MEMO = ContextVar("lfactors_memo", default=None)


@contextmanager
def scope():
    """A fresh memo for the calls inside; usable as a decorator."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def Key(obj) -> tuple:
    """A dataclass value's type and field keys, for `memo_key = cached_property(Key)`."""
    return type(obj), *(key_of(getattr(obj, f.name)) for f in fields(obj))


def key_of(a):
    """a's part of a key: its type and memo key (else value); a tuple's items each so."""
    t = type(a)
    if t is tuple:
        return tuple(map(key_of, a))
    if t is Fraction:
        return t, a.numerator, a.denominator
    return t, getattr(a, "memo_key", a)


def per_call(fn):
    """fn, memoised inside a scope by the keys of its arguments."""
    @functools.wraps(fn)
    def memoised(*args):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args)
        key = (fn, *map(key_of, args))
        value = memo.get(key)
        if value is None:  # no builder returns None
            value = memo[key] = fn(*args)
        return value
    return memoised
