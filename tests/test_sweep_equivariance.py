"""Scale and permutation equivariance of the sweep rows.

Scaling by a power of two is exact in floating point through the centering,
the eigensolve, the selection and the row formulas, so ``sweep(4 d)`` is
``sweep(d)`` with stress_sq, c1, c2 and c3 times 16 and scaled_additive
times 4, bitwise.  Permuting the points moves the eigensolve's rounding, so
the rows of the permuted d agree with those of d within the README's rule:
``RTOL`` relative above the exact-fit floor of ``FLOOR`` ||d||^2.
"""

import numpy as np
import pytest

from neucmds.datasets import gen_euclidean_ball, gen_random_simplex
from neucmds.embedding import sweep

from test_spectral_sweep import FLOOR, RTOL

N = 200
K_LIST = range(1, N + 1, 7)  # 29 ks: 87 rows over the three methods
INPUTS = {"simplex": gen_random_simplex, "balls": gen_euclidean_ball}


def squares(rep):
    return (rep.stress_sq, rep.c1, rep.c2, rep.c3, rep.scaled_additive ** 2)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", INPUTS)
def test_sweep_of_4d_is_sweep_of_d_scaled_bitwise(kind, seed):
    d = INPUTS[kind](N, seed=seed)
    rows, scaled = sweep(d, K_LIST), sweep(4.0 * d, K_LIST)
    assert len(rows) == len(scaled) == 87
    for a, b in zip(rows, scaled):
        where = (a.k, a.method)
        assert (b.k, b.method, b.report.neg_axes_count) == (*where, a.report.neg_axes_count)
        want = [16.0 * a.report.stress_sq, 16.0 * a.report.c1, 16.0 * a.report.c2,
                16.0 * a.report.c3, 4.0 * a.report.scaled_additive, 4.0 * a.report.stress]
        got = [b.report.stress_sq, b.report.c1, b.report.c2,
               b.report.c3, b.report.scaled_additive, b.report.stress]
        assert np.array(got).tobytes() == np.array(want).tobytes(), where


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", INPUTS)
def test_sweep_of_a_permuted_d_agrees_above_the_floor(kind, seed):
    d = INPUTS[kind](N, seed=seed)
    perm = np.random.default_rng(seed).permutation(N)
    floor = FLOOR * float(np.vdot(d, d))
    for a, b in zip(sweep(d, K_LIST), sweep(d[np.ix_(perm, perm)], K_LIST)):
        where = (a.k, a.method)
        assert (b.k, b.method, b.report.neg_axes_count) == (*where, a.report.neg_axes_count)
        for field, x, y in zip(("stress_sq", "c1", "c2", "c3", "scaled_additive^2"),
                               squares(a.report), squares(b.report)):
            assert abs(y - x) <= max(RTOL * abs(x), floor), (*where, field, x, y)
