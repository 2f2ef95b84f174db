"""Sequential model container and the two experiment architectures.

The MLP is projection 3072 -> proj_dim, ReLU, an aggregation slot
hidden_dim -> hidden_dim, ReLU, and a linear classifier.  The CNN keeps a
fixed convolutional extractor (3->64->64, pool, 64->128->128, pool giving
128 * 8 * 8 = 8192 features on 32x32 input) in front of the same
projection / aggregation / classifier head.  The aggregation slot holds a
plain LinearLayer for the baseline and otherwise a HybridLayer of one of
the three blended kinds (two-way F-Mean, two-way Gaussian, three-way); the
single-path kinds are not offered as slot choices.
"""

from __future__ import annotations

import copy

import numpy as np

from .aggregation import HybridLayer
from .layers import (
    ConvLayer,
    FlattenLayer,
    Layer,
    LinearLayer,
    MaxPool2x2Layer,
    Parameter,
    ReLULayer,
)

AGGREGATION_KINDS = ("baseline", "fmean-hybrid", "gaussian-hybrid", "threeway-hybrid")
ARCHS = ("mlp", "cnn")

_HYBRID_OF = {
    "fmean-hybrid": "two-way-fmean",
    "gaussian-hybrid": "two-way-gaussian",
    "threeway-hybrid": "three-way",
}

CNN_CHANNELS = (64, 64, 128, 128)
CNN_FLAT = 128 * 8 * 8


class Model:
    """An ordered stack of layers trained with softmax cross-entropy."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def forward(self, x, train: bool = True):
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, dlogits):
        grad = dlogits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state(self) -> list[np.ndarray]:
        """Deep copies of all parameter arrays, in declaration order."""
        return [p.data.copy() for p in self.parameters()]

    def load_state(self, state: list[np.ndarray]):
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError("state length mismatch")
        for p, arr in zip(params, state):
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {p.name}")
            p.data = arr.copy()

    def clone(self):
        return copy.deepcopy(self)


def _agg_slot(kind: str, in_w: int, out_w: int, rng, eps: float) -> Layer:
    if kind == "baseline":
        return LinearLayer(in_w, out_w, rng)
    return HybridLayer(in_w, out_w, _HYBRID_OF[kind], rng, eps=eps)


def build_mlp(aggregation: str, rng, in_dim=3072, proj_dim=128, hidden_dim=128,
              classes=10, eps=1e-8) -> Model:
    return Model([
        LinearLayer(in_dim, proj_dim, rng),
        ReLULayer(),
        _agg_slot(aggregation, proj_dim, hidden_dim, rng, eps),
        ReLULayer(),
        LinearLayer(hidden_dim, classes, rng),
    ])


def build_cnn(aggregation: str, rng, proj_dim=256, hidden_dim=256, classes=10,
              eps=1e-8) -> Model:
    c1, c2, c3, c4 = CNN_CHANNELS
    return Model([
        ConvLayer(3, c1, rng),
        ReLULayer(),
        ConvLayer(c1, c2, rng),
        ReLULayer(),
        MaxPool2x2Layer(),
        ConvLayer(c2, c3, rng),
        ReLULayer(),
        ConvLayer(c3, c4, rng),
        ReLULayer(),
        MaxPool2x2Layer(),
        FlattenLayer(),
        LinearLayer(CNN_FLAT, proj_dim, rng),
        ReLULayer(),
        _agg_slot(aggregation, proj_dim, hidden_dim, rng, eps),
        ReLULayer(),
        LinearLayer(hidden_dim, classes, rng),
    ])


def aggregation_layer(model: Model):
    """The model's HybridLayer, or None for a baseline model."""
    for layer in model.layers:
        if isinstance(layer, HybridLayer):
            return layer
    return None
