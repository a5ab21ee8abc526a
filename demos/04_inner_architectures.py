"""The inner-model design space: every architecture, checked end to end.

Each inner model ships with analytic weight-gradient expressions so the outer
loop can differentiate through its updates. This script gradchecks a full TTT
layer for every architecture and prints each one's compute profile, including
the forward-equivalent cost of one inner training epoch.
"""

import numpy as np

from tttlab import autodiff as ad
from tttlab.autodiff import Tape, gradcheck
from tttlab.inner import ARCH_NAMES, InnerTrainConfig, get_arch
from tttlab.layer import TTTLayerParams, ttt_attention_nodes
from tttlab.model import arch_forward_flops, inner_head_flops, weight_count

rng = np.random.default_rng(0)
dim, n, grid = 6, 9, (3, 3)
cfg = InnerTrainConfig(loss="mse")
x = rng.standard_normal((n, dim))

print(f"{'architecture':>14s} {'weights':>8s} {'fwd flops':>10s} {'epoch cost':>11s} {'gradcheck':>10s}")
for name in ARCH_NAMES:
    arch = get_arch(name)
    params = TTTLayerParams.create(np.random.default_rng(1), dim, 1, (name,))

    def f(p, arch=arch):
        t = Tape()
        leaves = {k: t.leaf(w, name=k, param=True) for k, w in p.items()}
        out = ttt_attention_nodes(t.leaf(x), leaves, params, cfg,
                                  grid if arch.requires_grid else None)
        return ad.sum_all(ad.mul(out, out))

    err = gradcheck(f, {k: np.asarray(w) for k, w in params.named_arrays().items()})
    fwd = arch_forward_flops(name, n, dim)
    cost = inner_head_flops(name, "mse", n, dim, 1, 1, False, grid)
    print(f"{name:>14s} {weight_count(name, dim):>8d} {fwd:>10d} "
          f"{cost['convention'] / fwd:>10.2f}x {err:>10.2e}")

print("\n('epoch cost' = one inner epoch plus the query pass, in units of one")
print(" forward pass of the same module; backward counted as 2x forward)")
