"""A memo whose lifetime is one top-level call (`run_verify`).

Keys carry each argument's type, and a character's `memo_key` the types of
its z and t: t = 1/2 and t = 0.5+0j are equal, yet print `s+1/2` and
`s+[0.5+0.0i]`.  Each scope and each thread has its own memo; outside a
scope nothing is kept.
"""

import functools
from contextlib import contextmanager
from contextvars import ContextVar

_MEMO = ContextVar("lfactors_memo", default=None)


@contextmanager
def scope():
    """A fresh memo for the calls inside; usable as a decorator."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def per_call(fn):
    """fn, memoised inside a scope by the types and values (or memo keys) of its arguments."""
    @functools.wraps(fn)
    def memoised(*args):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args)
        key = (fn, *[(type(a), getattr(a, "memo_key", a)) for a in args])
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]
    return memoised
