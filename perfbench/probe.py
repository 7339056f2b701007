"""Precision probe: mi_from_gains against a 60-digit log-det of the same inputs.

For each (K, m) network of a workload with F <= MAX_F, the probe takes every
receiver's own term I(X_i; Y_i) and cross term I(X_{others}; Y_i) at every
rho of the grid. The reference builds I + sum_k P_k G_k V_k (G_k V_k)^H in
mpmath from the exact float64 gains and powers and takes its log-det by an
LDL^H factorisation, so it measures the error of the double-precision path
alone. It costs seconds per network, so it runs only beside the traced run.
"""

import mpmath

from iasec.alignment import build_beamformers, build_generators, stream_power
from iasec.gaussmi import DEFAULT_RHO_GRID, mi_from_gains, receiver_gains
from iasec.model import PowerConfig, derive_dims, sample_network

MAX_F = 33
DIGITS = 60


def _gram(g):
    """Lower triangle of g g^H as mpc entries (exact products of the doubles)."""
    F, n = g.shape
    rows = [[mpmath.mpc(complex(v)) for v in g[a]] for a in range(F)]
    conj = [[v.conjugate() for v in row] for row in rows]
    return [
        [mpmath.fsum(rows[a][j] * conj[b][j] for j in range(n)) for b in range(a + 1)]
        for a in range(F)
    ]


def _log2det_eye_plus(grams, powers, users, F):
    """log2 det(I + sum_{k in users} P_k Gram_k) by LDL^H on the lower triangle."""
    a = [[mpmath.mpc(1 if r == c else 0) for c in range(r + 1)] for r in range(F)]
    for k in users:
        p = mpmath.mpf(float(powers[k]))
        for row, gram_row in zip(a, grams[k]):
            for c, v in enumerate(gram_row):
                row[c] += p * v
    total = mpmath.mpf(0)
    for j in range(F):
        d = a[j][j].real
        total += mpmath.log(d)
        column = [a[r][j] for r in range(j + 1, F)]
        column_conj = [v.conjugate() for v in column]
        for r in range(j + 1, F):
            lrj = column[r - j - 1] / d
            row = a[r]
            for c in range(j + 1, r + 1):
                row[c] -= lrj * column_conj[c - j - 1]
    return total / mpmath.log(2)


def probe(seed, points, epsilon_margin=1.0, rho_grid=DEFAULT_RHO_GRID):
    """Worst relative error over all probed terms, overall and at the top rho."""
    worst = {"max": 0.0, "top": 0.0, "where_max": None, "where_top": None, "terms": 0}
    with mpmath.workdps(DIGITS):
        for K, m in points:
            dims = derive_dims(K, m)
            if dims.F > MAX_F:
                continue
            net = sample_network(dims, seed)
            aset = build_beamformers(net, build_generators(net), verify=False)
            for i in range(K):
                gains = receiver_gains(net, aset, i)
                grams = [_gram(g) for g in gains]
                others = [k for k in range(K) if k != i]
                for rho in rho_grid:
                    powers = stream_power(aset, PowerConfig(rho=rho, epsilon_margin=epsilon_margin))
                    full = _log2det_eye_plus(grams, powers, range(K), dims.F)
                    for term, signal, noise in (("own", [i], others), ("cross", others, [i])):
                        ref = full - _log2det_eye_plus(grams, powers, noise, dims.F)
                        got = mi_from_gains(gains, powers, signal).bits
                        err = float(abs((got - ref) / ref))
                        where = f"K={K} m={m} rx{i} {term} rho={rho:g}"
                        worst["terms"] += 1
                        if err > worst["max"]:
                            worst["max"], worst["where_max"] = err, where
                        if rho == rho_grid[-1] and err > worst["top"]:
                            worst["top"], worst["where_top"] = err, where
    return worst
