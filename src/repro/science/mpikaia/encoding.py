"""PIKAIA-style decimal chromosome encoding.

PIKAIA (Charbonneau 1995; parallelised as MPIKAIA in Metcalfe &
Charbonneau 2003) encodes each normalised parameter in [0, 1) as a fixed
number of decimal digits and concatenates the genes into one chromosome.
Crossover and mutation operate on the digit string; decoding maps back to
the physical search box.
"""

from __future__ import annotations

import numpy as np


class Encoding:
    """Maps physical parameter vectors ↔ decimal chromosomes.

    Parameters
    ----------
    bounds:
        Ordered ``[(low, high), ...]`` for each physical parameter.
    digits_per_gene:
        Decimal digits of resolution per parameter (PIKAIA default 6).
    """

    def __init__(self, bounds, digits_per_gene=6):
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        self.digits_per_gene = int(digits_per_gene)
        self.n_genes = len(self.bounds)
        self.length = self.n_genes * self.digits_per_gene
        self._scale = 10 ** self.digits_per_gene

    # ------------------------------------------------------------------
    def normalise(self, physical):
        """Physical vector → fractions in [0, 1)."""
        physical = np.asarray(physical, dtype=float)
        out = np.empty(self.n_genes)
        for i, (lo, hi) in enumerate(self.bounds):
            out[i] = (physical[i] - lo) / (hi - lo)
        return np.clip(out, 0.0, 1.0 - 1e-12)

    def denormalise(self, fractions):
        fractions = np.asarray(fractions, dtype=float)
        out = np.empty(self.n_genes)
        for i, (lo, hi) in enumerate(self.bounds):
            out[i] = lo + fractions[i] * (hi - lo)
        return out

    # ------------------------------------------------------------------
    def encode(self, physical):
        """Physical vector → digit array of shape (length,)."""
        fractions = self.normalise(physical)
        digits = np.empty(self.length, dtype=np.int8)
        for i, frac in enumerate(fractions):
            value = int(frac * self._scale)
            for j in range(self.digits_per_gene - 1, -1, -1):
                digits[i * self.digits_per_gene + j] = value % 10
                value //= 10
        return digits

    def decode(self, digits):
        """Digit array → physical vector."""
        digits = np.asarray(digits)
        if digits.shape != (self.length,):
            raise ValueError(
                f"Chromosome length {digits.shape} != ({self.length},)")
        fractions = np.empty(self.n_genes)
        for i in range(self.n_genes):
            gene = digits[i * self.digits_per_gene:
                          (i + 1) * self.digits_per_gene]
            value = 0
            for digit in gene:
                value = value * 10 + int(digit)
            fractions[i] = value / self._scale
        return self.denormalise(fractions)

    def random_population(self, rng, size):
        return rng.integers(0, 10, size=(size, self.length)).astype(np.int8)

    def decode_population(self, population):
        """Vectorised decode of an entire (pop, length) digit matrix."""
        population = np.asarray(population)
        pop = population.reshape(population.shape[0], self.n_genes,
                                 self.digits_per_gene)
        weights = 10.0 ** np.arange(self.digits_per_gene - 1, -1, -1)
        values = (pop * weights).sum(axis=2) / self._scale
        lows = np.array([b[0] for b in self.bounds])
        highs = np.array([b[1] for b in self.bounds])
        return lows + values * (highs - lows)
