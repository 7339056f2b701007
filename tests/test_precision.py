"""Precision oracle: every double-precision log-det term against a >= 30-digit reference.

The reference forms I + sum_k P_k G_k G_k^H from the exact float64 gains and
powers and takes its log-det by an LDL^H factorisation in Python integers
with FRAC_BITS fractional bits. Every pivot of I + (PSD) is at least 1, so
fixed-point rounding at 2^-FRAC_BITS keeps far more than 30 significant
digits in each log; the logs themselves come from mpmath at DIGITS digits.
Each user's Gram is built once per receiver and reused for every set and rho.
"""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from iasec.alignment import build_beamformers, build_generators, stream_power
from iasec.gaussmi import DEFAULT_RHO_GRID, mi_from_gains, receiver_gains, spectra_table
from iasec.model import PowerConfig, derive_dims, sample_network
from iasec.secrecy import confidential_rates

SEED = 16
FRAC_BITS = 200
DIGITS = 40
REL_TOL = 1e-12


def _fixed(x):
    """x * 2^FRAC_BITS as an integer, truncated below 2^-FRAC_BITS."""
    return int(math.ldexp(x, FRAC_BITS))


def _gram(g):
    """Lower triangle of g g^H in fixed point, as (real, imag) integer pairs."""
    rows = [[(_fixed(v.real), _fixed(v.imag)) for v in row] for row in g.tolist()]
    gram = []
    for a, row_a in enumerate(rows):
        out = []
        for row_b in rows[: a + 1]:
            re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(row_a, row_b))
            im = sum(ai * br - ar * bi for (ar, ai), (br, bi) in zip(row_a, row_b))
            out.append((re >> FRAC_BITS, im >> FRAC_BITS))
        gram.append(out)
    return gram


def _log2det_eye_plus(grams, weights):
    """log2 det(I + sum_k weights[k] Gram_k) by LDL^H on the lower triangle."""
    F = len(grams[0])
    one = 1 << FRAC_BITS
    a = [[[one if r == c else 0, 0] for c in range(r + 1)] for r in range(F)]
    for gram, w in zip(grams, weights):
        if not w:
            continue
        w = _fixed(w)
        for row, gram_row in zip(a, gram):
            for entry, (re, im) in zip(row, gram_row):
                entry[0] += (w * re) >> FRAC_BITS
                entry[1] += (w * im) >> FRAC_BITS
    pivots = []
    for j in range(F):
        d = a[j][j][0]
        pivots.append(d)
        column = [a[r][j] for r in range(j + 1, F)]
        for r, (cr, ci) in enumerate(column, start=j + 1):
            lr, li = (cr << FRAC_BITS) // d, (ci << FRAC_BITS) // d
            row = a[r]
            # row[c] -= l_rj * conj(a_cj)
            for c, (br, bi) in enumerate(column[: r - j], start=j + 1):
                row[c][0] -= (lr * br + li * bi) >> FRAC_BITS
                row[c][1] -= (li * br - lr * bi) >> FRAC_BITS
    with mpmath.workdps(DIGITS):
        total = mpmath.fsum(mpmath.log(d) for d in pivots) - F * FRAC_BITS * mpmath.log(2)
        return total / mpmath.log(2)


def _weights(powers, users, boost=None):
    """P_k for k in users (times boost[k] where given), 0 for everyone else."""
    boost = boost or {}
    return [powers[k] * boost.get(k, 1) if k in users else 0.0 for k in range(len(powers))]


@pytest.mark.parametrize("K, m", [(3, 1), (3, 2), (4, 1)])
def test_terms_match_high_precision_reference(K, m):
    """Own and cross terms everywhere; at K=4 also every subset and inflated term."""
    dims = derive_dims(K, m)
    net = sample_network(dims, SEED)
    aset = build_beamformers(net, build_generators(net))
    loads = np.array([PowerConfig(rho=rho).effective for rho in DEFAULT_RHO_GRID])
    rates = confidential_rates(net, spectra_table(net, aset), loads)
    worst = (0.0, None)
    for i in range(K):
        gains = receiver_gains(net, aset, i)
        grams = [_gram(g) for g in gains]
        others = tuple(k for k in range(K) if k != i)
        for g, rho in enumerate(DEFAULT_RHO_GRID):
            powers = stream_power(aset, PowerConfig(rho=rho))
            alone = _log2det_eye_plus(grams, _weights(powers, {i}))
            full = _log2det_eye_plus(grams, _weights(powers, range(K)))
            terms = [
                ("own", full - _log2det_eye_plus(grams, _weights(powers, others)),
                 rates.own_bits[i, g], mi_from_gains(gains, powers, {i}).bits),
                ("cross", full - alone,
                 rates.cross_bits[i, g], mi_from_gains(gains, powers, others).bits),
            ]
            if K == 4:
                for mask, bits in zip(rates.subset_masks[i].tolist(), rates.subset_bits[i]):
                    sub = tuple(k for k in range(K) if mask >> k & 1)
                    if sub == others:
                        continue
                    rest = set(others) - set(sub)
                    top = _log2det_eye_plus(grams, _weights(powers, {i, *sub}))
                    terms.append((f"subset {sub}", top - alone, bits[g],
                                  mi_from_gains(gains, powers, sub, rest).bits))
                inflated = _weights(powers, range(K), {k: dims.streams[k] for k in others})
                top = _log2det_eye_plus(grams, inflated)
                terms.append(("inflated", top - alone, rates.leak_upper_bits[i, g],
                              mi_from_gains(gains, inflated, others).bits))
            for name, exact, table_bits, direct_bits in terms:
                for path, got in (("table", table_bits), ("mi_from_gains", direct_bits)):
                    err = float(abs((got - exact) / exact))
                    if err > worst[0]:
                        worst = (err, f"{path} rx{i} {name} rho={rho:g}")
    assert worst[0] <= REL_TOL, worst


def test_benchmark_probe_runs_on_the_public_api():
    """perfbench/probe.py drives sample_network, build_generators, build_beamformers,
    receiver_gains, stream_power and mi_from_gains; it must keep running on them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    worst = module.probe(SEED, [(3, 1)])
    assert worst["terms"] == 30  # 3 receivers x (own, cross) x 5 grid points
    assert worst["max"] < 1e-12, worst
