"""Deterministic seeded randomness for property sweeps and reports.

A splitmix-style 64-bit generator is used instead of ``random`` so that
identical seeds give identical streams on every platform, which keeps
verification reports byte-stable.  Rational coefficients are drawn with
numerators in [-9, 9] and denominators in [1, 9].
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import Form, basis_masks

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator; tiny, stateless apart from one counter."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * (self.next_u64() / 2.0**64)

    def rational(self) -> Fraction:
        """A nonzero rational with numerator in [-9, 9] and denominator in [1, 9]."""
        num = self.randint(-9, 9)
        while num == 0:
            num = self.randint(-9, 9)
        return Fraction(num, self.randint(1, 9))

    def small_int(self, zero_ok: bool = True) -> int:
        v = self.randint(-9, 9)
        if not zero_ok:
            while v == 0:
                v = self.randint(-9, 9)
        return v


def random_form(space, degree: int, rng: SplitMix64, terms: int | None = None,
                integer: bool = False):
    """Random form with a bounded number of nonzero coefficients.

    ``terms`` defaults to min(4, number of basis forms); small supports keep
    exact sweeps fast without losing genericity of the identities tested.
    """
    masks = basis_masks(space.dim, degree)
    if not masks:
        return Form(space, degree, {})
    if terms is None:
        terms = min(4, len(masks))
    coeffs = {}
    for _ in range(terms):
        mask = masks[rng.next_u64() % len(masks)]
        if space.backend == "exact":
            val = rng.small_int(zero_ok=False) if integer else rng.rational()
        else:
            val = rng.uniform(-1.0, 1.0)
        coeffs[mask] = coeffs.get(mask, 0) + val
    return Form(space, degree, {m: c for m, c in coeffs.items() if c != 0})


def random_vector(space, rng: SplitMix64):
    """A random vector, given by its 1-form: one draw per component, in order."""
    if space.backend == "exact":
        comps = [rng.small_int() for _ in range(space.dim)]
    else:
        comps = [rng.uniform(-1.0, 1.0) for _ in range(space.dim)]
    return Form(space, 1, {1 << i: c for i, c in enumerate(comps)})

