"""A memo whose lifetime is one top-level call (`run_verify` or `run_query`).

A key is a plain tuple whose leaves are ints, strs, floats, complexes, None
and types, so CPython hashes and compares it in C: a Fraction keys as its
type, numerator and denominator, and a character, datum, space, field or
algebra as its `memo_key`, its type then its fields' keys, built once per
value without a lock.  Every leaf carries its type: t = 1/2 and t = 0.5+0j
are equal, yet print `s+1/2` and `s+[0.5+0.0i]`.  Each scope and each
thread has its own memo; outside a scope nothing is kept.
"""

import functools
from contextlib import contextmanager
from contextvars import ContextVar
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
    """A dataclass value's type, then the keys of its fields (named once per class)."""
    return type(obj), *(key_of(getattr(obj, name)) for name in obj.__dataclass_fields__)


class MemoKey:
    """`memo_key = MemoKey()`: Key(obj) on the first read, then kept in obj's __dict__
    (a frozen value's key is a pure function of it, so a race stores one tuple twice)."""

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault("memo_key", Key(obj))


def key_of(a):
    """a's part of a key: its memo key, else its type and value; a tuple's items each so."""
    t = type(a)
    if t is tuple:
        return tuple(map(key_of, a))
    if t is Fraction:
        return t, a.numerator, a.denominator
    key = getattr(a, "memo_key", None)
    return (t, a) if key is None else key


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
