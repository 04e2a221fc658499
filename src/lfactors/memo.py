"""A memo whose lifetime is one top-level call (`run_verify`).

Keys carry each argument's type, and the `memo_key` of a character, datum or
space the types of its fields: t = 1/2 and t = 0.5+0j are equal, yet print
`s+1/2` and `s+[0.5+0.0i]`.  Each scope and each thread has its own memo;
outside a scope nothing is kept.
"""

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields

_MEMO = ContextVar("lfactors_memo", default=None)


@contextmanager
def scope():
    """A fresh memo for the calls inside; usable as a decorator."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


class Key(tuple):
    """A dataclass value's type and field keys, in a tuple that hashes once."""

    def __new__(cls, obj):
        key = super().__new__(cls, (type(obj), *(key_of(getattr(obj, f.name)) for f in fields(obj))))
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self.hash

    def __reduce__(self):  # a copy or a pickle holds the parts, hashed anew
        return tuple, (tuple(self),)


def key_of(a):
    """a's part of a key: its type and memo key (else value); a tuple's items each so."""
    if type(a) is tuple:
        return tuple(map(key_of, a))
    return type(a), getattr(a, "memo_key", a)


def per_call(fn):
    """fn, memoised inside a scope by the keys of its arguments."""
    @functools.wraps(fn)
    def memoised(*args):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args)
        key = (fn, *map(key_of, args))
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]
    return memoised
