"""Sequential model container and the two experiment architectures.

The MLP is projection 3072 -> proj_dim, ReLU, an aggregation slot
proj_dim -> hidden_dim, ReLU, and a linear classifier.  The CNN keeps a
fixed convolutional extractor (3->64->64, pool, 64->128->128, pool giving
128 * 8 * 8 = 8192 features on 32x32 input) in front of the same
projection / aggregation / classifier head.  The aggregation slot holds a
plain LinearLayer for the baseline and otherwise a HybridLayer of one of
the kinds that blend in the linear path (fmean-hybrid, gaussian-hybrid,
threeway-hybrid); the single-path kinds are not offered as slot choices.
"""

from __future__ import annotations

import copy

import numpy as np

from .aggregation import EPS, KIND_PATHS, LINEAR, HybridLayer
from .layers import (
    ConvLayer,
    FlattenLayer,
    Layer,
    LinearLayer,
    MaxPool2x2Layer,
    Parameter,
    ReLULayer,
)

AGGREGATION_KINDS = ("baseline", *(k for k, paths in KIND_PATHS.items() if LINEAR in paths))
ARCHS = ("mlp", "cnn")

CNN_CHANNELS = (64, 64, 128, 128)
CNN_FLAT = 128 * 8 * 8


class Model:
    """An ordered stack of layers trained with softmax cross-entropy."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.params()]

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

    def state(self) -> list[np.ndarray]:
        """Deep copies of all parameter arrays, in declaration order."""
        return [p.data.copy() for p in self.parameters()]

    def load_state(self, state: list[np.ndarray]):
        """Copy ``state`` into the parameters; every count and shape is
        checked before the first one is assigned."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(f"state has {len(state)} arrays, model has {len(params)} parameters")
        for p, arr in zip(params, state):
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {p.name}: {arr.shape}, model {p.data.shape}")
        for p, arr in zip(params, state):
            p.data = arr.copy()

    def clone(self):
        return copy.deepcopy(self)


def _head(in_w: int, aggregation: str, rng, proj_dim: int, hidden_dim: int,
          classes: int, eps: float) -> list[Layer]:
    """Projection, ReLU, aggregation slot, ReLU, classifier; ``rng`` is
    drawn in that order."""
    return [
        LinearLayer(in_w, proj_dim, rng),
        ReLULayer(),
        LinearLayer(proj_dim, hidden_dim, rng) if aggregation == "baseline"
        else HybridLayer(proj_dim, hidden_dim, aggregation, rng, eps=eps),
        ReLULayer(),
        LinearLayer(hidden_dim, classes, rng),
    ]


def build_mlp(aggregation: str, rng, in_dim=3072, *, proj_dim: int, hidden_dim: int,
              classes: int, eps=EPS) -> Model:
    return Model(_head(in_dim, aggregation, rng, proj_dim, hidden_dim, classes, eps))


def build_cnn(aggregation: str, rng, *, proj_dim: int, hidden_dim: int, classes: int,
              eps=EPS) -> Model:
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
        *_head(CNN_FLAT, aggregation, rng, proj_dim, hidden_dim, classes, eps),
    ])


def aggregation_layer(model: Model):
    """The model's HybridLayer, or None for a baseline model."""
    return next((layer for layer in model.layers if isinstance(layer, HybridLayer)), None)
