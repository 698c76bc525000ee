"""Pure-numpy neural network substrate.

The paper trains LeNet-5 / ResNet / DenseNet clients in PyTorch; this package
provides the equivalent substrate at simulator scale: explicitly
differentiated layers, a :class:`~repro.nn.network.Sequential` container
exposing both logits and the penultimate-layer *features* ShiftEx uses for
covariate-shift detection, and a local SGD/FedProx training loop.

All layers are gradient-checked in the test suite against central finite
differences.
"""

from repro.nn.layers import Layer, Dense, ReLU, Conv2d, MaxPool2d, Flatten
from repro.nn.losses import softmax_cross_entropy, softmax_probs
from repro.nn.optim import SGD
from repro.nn.network import Sequential
from repro.nn.models import build_model, model_names
from repro.nn.training import LocalTrainingConfig, train_local, evaluate

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "Flatten",
    "softmax_cross_entropy",
    "softmax_probs",
    "SGD",
    "Sequential",
    "build_model",
    "model_names",
    "LocalTrainingConfig",
    "train_local",
    "evaluate",
]
