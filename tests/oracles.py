"""Brute-force references for the vectorized kernels in ``jpta._kernels``.

Plain loops, one ring at a time: slow, but simple enough to read as the
definition the fast kernels are checked against. ``benchmarks/`` imports
them too, to time the kernels against the loops they replace.
"""

import math

import numpy as np


def rate_scan_py(snr_unsplit_desc, thr_lin, se, unique_betas, beta_idx,
                 min_rbs):
    """Best feasible (RB count, MCS) of one ring by exhaustive scan.

    ``snr_unsplit_desc`` is one ring's per-RB linear SNR with the whole
    transmit power on one RB, sorted descending. Every allocation size n
    from ``min_rbs`` up and every MCS level is tried; the highest feasible
    MCS per n is kept and candidates are ranked by ``se * n``, then higher
    MCS, then fewer RBs.

    The EESM mean is a 1-D ``np.mean`` of ``np.exp`` with ``math.log`` on
    top, the arithmetic ``select_rate`` is defined by. A sequential
    ``math.exp`` sum rounds differently and could flip a decision whose
    threshold is met with equality.

    Returns ``(best_n, best_mcs, best_eff_lin, best_se_n)``, and
    ``(0, -1, 0.0, 0.0)`` when nothing is feasible.
    """
    best = (0, -1, 0.0, 0.0)
    best_rate = -1.0
    for n in range(min_rbs, snr_unsplit_desc.shape[0] + 1):
        values = snr_unsplit_desc[:n] / n
        v_min = values[-1]
        effs = [v_min - beta * math.log(np.mean(np.exp(-(values - v_min)
                                                       / beta)))
                for beta in unique_betas]
        for i in range(se.shape[0] - 1, -1, -1):
            eff = effs[beta_idx[i]]
            if eff >= thr_lin[i]:
                rate = se[i] * n
                if rate > best_rate or (rate == best_rate and i > best[1]):
                    best_rate = rate
                    best = (n, i, eff, rate)
                break
    return best
