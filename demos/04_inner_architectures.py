"""The inner-model design space: every architecture, checked end to end.

Each inner model ships with analytic weight-gradient expressions so the outer
loop can differentiate through its updates. This script gradchecks a full TTT
layer for every architecture and prints each one's compute profile, including
the forward-equivalent cost of one inner training epoch.
"""

import numpy as np

from tttlab import autodiff as ad
from tttlab import tensor as T
from tttlab.autodiff import Tape, gradcheck
from tttlab.inner import ARCH_NAMES, InnerTrainConfig, get_arch
from tttlab.layer import TTTLayerParams, ttt_attention_nodes
from tttlab.model import ttt_layer_flops

rng = np.random.default_rng(0)
dim, n, grid = 6, 9, (3, 3)
cfg = InnerTrainConfig(loss="mse")
x = rng.standard_normal((n, dim))

print(f"{'architecture':>14s} {'weights':>8s} {'fwd flops':>10s} {'epoch cost':>11s} {'gradcheck':>10s}")
for name in ARCH_NAMES:
    arch = get_arch(name)
    params = TTTLayerParams.create(np.random.default_rng(1), dim, 1, (name,))

    def f(p, t, arch=arch):
        leaves = {k: t.leaf(w, name=k, param=True) for k, w in p.items()}
        out = ttt_attention_nodes(t.leaf(x), leaves, params, cfg,
                                  grid if arch.requires_grid else None)
        return ad.sum_all(ad.mul(out, out))

    err = gradcheck(f, {k: np.asarray(w) for k, w in params.named_arrays().items()})
    weights = sum(int(np.prod(s)) for s in arch.weight_shapes(dim))
    tape = Tape(record=False)
    with T.count_flops() as fwd:
        arch.forward([tape.leaf(w) for w in params.inner[0].weights], tape.leaf(x), grid)
    cost = ttt_layer_flops(n, dim, 1, (name,), cfg, grid)["ratio"]
    print(f"{name:>14s} {weights:>8d} {fwd.total:>10d} {cost:>10.2f}x {err:>10.2e}")

print("\n('epoch cost' = one inner epoch plus the query pass, in units of one")
print(" forward pass of the same module; backward counted as 2x forward)")
