"""Independent reference routes that tests compare the package against."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from solvstrat.bracket import BracketTensor, inner, rep, rep_array


def ricci_moment_via_duality(mu: BracketTensor):
    """Independent route: Ric_ab = (1/4) <pi(E_ab) mu, mu>."""
    n = mu.dim
    if mu.is_exact_mode:
        out = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                e = [[Fraction(int(r == a and c == b)) for c in range(n)] for r in range(n)]
                out[a][b] = Fraction(1, 4) * inner(rep(e, mu), mu)
        return out
    arr = mu.to_array()
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            out[a, b] = 0.25 * float(np.sum(rep_array(e, arr) * arr))
    return out
