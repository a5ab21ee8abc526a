"""tttlab: test-time-training attention layers, oracles, and a desk-scale harness."""

from . import allocator  # first, so the allocator policy is set before tttlab allocates
from . import autodiff, data, harness, inner, layer, model, tensor
from .autodiff import Tape, gradcheck
from .inner import (INNER_LOSSES, InnerModel, InnerTrainConfig, inner_loss_grad,
                    inner_update, partition_batches)
from .layer import (TTTLayerParams, attention_mlp_oracle, linear_attention,
                    softmax_attention, ttt_attention)
from .model import Model, ModelConfig, adamw_step, flops_estimate, forward_classifier
from .data import Dataset, augment, load_cifar10, synth_recall_task

__version__ = "0.1.0"
