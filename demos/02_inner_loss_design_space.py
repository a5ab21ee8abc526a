"""The five inner losses and why the mixed second derivative matters.

The value projection W_V receives outer-loop gradient only through the inner
update term, and that pathway is proportional to d2L/(dVhat dV). Losses whose
mixed derivative vanishes (MAE everywhere, smooth-L1 in its linear zone)
starve W_V; this script shows the derivative tables and the exact-zero
gradient at the layer level.
"""

import numpy as np

from tttlab import autodiff as ad
from tttlab.autodiff import Tape
from tttlab.inner import INNER_LOSSES, InnerTrainConfig, inner_loss_grad
from tttlab.layer import TTTLayerParams, ttt_attention_nodes

rng = np.random.default_rng(0)
vhat = rng.standard_normal((3, 4))
v = rng.standard_normal((3, 4))

# every loss is one registry entry: its value, its tape gradient, its
# closed-form mixed derivative (and how that reads), and where it has a kink
print(f"{'loss':>10s} {'value':>9s}  {'|dL/dVhat|':>10s}  mixed d2L/(dVhat dV)")
for kind, loss in INNER_LOSSES.items():
    g = inner_loss_grad(kind, vhat, v)
    uniq = np.unique(np.round(loss.mixed(vhat, v), 6))
    desc = f"constant {uniq[0]:+.4f}" if len(uniq) == 1 else f"values {uniq}"
    print(f"{kind:>10s} {loss.value(vhat, v):+9.4f}  {np.abs(g).max():10.4f}  {desc}")
    kink = f"kink where |Vhat-V| = {loss.kink[1]:g} ({loss.kink[0]})" if loss.kink else "smooth"
    print(f"{'':>10s} closed form: {loss.mixed_form}; {kink}")

# layer-level consequence: dWv is exactly zero under MAE, nonzero under MSE
params = TTTLayerParams.create(rng, 8, 1, ("mlp_r1_l2",))
x = rng.standard_normal((7, 8))
for kind in ("mse", "mae"):
    tape = Tape()
    leaves = {k2: tape.leaf(w, name=k2, param=True)
              for k2, w in params.named_arrays().items()}
    out = ttt_attention_nodes(tape.leaf(x), leaves, params,
                              InnerTrainConfig(loss=kind))
    grads = tape.backward(ad.sum_all(out))
    print(f"{kind}: max |dOutput/dW_V| through the inner step =",
          np.abs(grads["h0.wv"]).max())
