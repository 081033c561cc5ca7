"""Integer primality and factorization utilities.

Used for squarefree parts of small discriminants and the prime support
of polynomial discriminants; prime powers are recognized by integer roots.
Deterministic: Pollard rho runs a fixed parameter schedule, never a random one.
"""

from __future__ import annotations

from math import gcd, isqrt

from ..errors import PreconditionViolation

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

# Miller-Rabin with these bases is deterministic for n < 3.317e24; the code
# below also runs bases 41..97, pushing any conceivable failure far past the
# integer sizes this package produces (discriminants of small sextics).
_MR_EXTRA = [41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES + _MR_EXTRA:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n, fixed deterministic schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise PreconditionViolation(f"failed to split {n}")


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise PreconditionViolation("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in range(2, 10000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # perfect powers first, then rho
        root = isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_brent(m)
        stack.extend([d, m // d])
    return out


def squarefree_part(n: int) -> int:
    """The squarefree integer m with n = m * square, carrying n's sign."""
    if n == 0:
        raise PreconditionViolation("squarefree part of zero")
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factor_int(n).items():
        if e % 2:
            out *= p
    return sign * out


def prime_power(q: int):
    """(p, v) with q = p^v, or None when q is not a prime power.

    Nothing is factored: p >= 2 bounds v by log2 q, and for each such v the
    integer v-th root of q, by Newton's method from above, is tested for
    being exact and prime.
    """
    for v in range(1, max(q, 1).bit_length()):
        p = 1 << -(-q.bit_length() // v)
        while (s := ((v - 1) * p + q // p ** (v - 1)) // v) < p:
            p = s
        if p**v == q and is_prime(p):
            return p, v
    return None


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1
