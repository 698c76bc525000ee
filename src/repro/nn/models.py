"""Model zoo.

The paper pairs each dataset with a standard architecture (LeNet-5 for
FEMNIST/Fashion-MNIST, ResNet-18/50 and DenseNet-121 for the image corpora)
and extracts penultimate-layer embeddings for shift detection.  At simulator
scale we keep the same *structure* — encoder, dense embedding layer, linear
head — with laptop-sized widths, in the two models the registered datasets
and benchmark plans name:

* ``mlp``        — dense encoder for flat inputs (stands in for LeNet-5's
                   fully connected tail on small synthetic images).
* ``lenet_mini`` — two conv+pool blocks and a dense embedding layer; the
                   direct analogue of LeNet-5.

The ResNet / DenseNet analogues were named by no dataset and no plan and are
gone; see "Measured and rejected" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, Standardize
from repro.nn.network import Sequential

_MODEL_NAMES = ("mlp", "lenet_mini")


def model_names() -> tuple[str, ...]:
    return _MODEL_NAMES


def _flat_dim(input_shape: tuple[int, ...]) -> int:
    return int(np.prod(input_shape))


def build_mlp(input_shape: tuple[int, ...], num_classes: int, rng: np.random.Generator,
              hidden: tuple[int, ...] = (64, 32), dtype=None) -> Sequential:
    """Dense classifier for (d,) or (c, h, w) inputs; features = activations
    of the last hidden layer."""
    if len(input_shape) not in (1, 3):
        raise ValueError(f"mlp expects (d,) or (c, h, w) input; got {input_shape}")
    layers: list = [Standardize()]
    if len(input_shape) == 3:
        layers.append(Flatten())
    dim = _flat_dim(input_shape)
    for width in hidden:
        layers.append(Dense(dim, width, rng))
        layers.append(ReLU())
        dim = width
    layers.append(Dense(dim, num_classes, rng))
    return Sequential(layers, dtype=dtype)


def build_lenet_mini(input_shape: tuple[int, ...], num_classes: int,
                     rng: np.random.Generator, embed_dim: int = 48,
                     dtype=None) -> Sequential:
    """LeNet-style conv net for (c, h, w) inputs with h, w divisible by 4."""
    if len(input_shape) != 3:
        raise ValueError(f"lenet_mini expects (c, h, w) input; got {input_shape}")
    c, h, w = input_shape
    if h % 4 or w % 4:
        raise ValueError("lenet_mini requires spatial dims divisible by 4")
    flat = 16 * (h // 4) * (w // 4)
    layers = [
        Standardize(),
        Conv2d(c, 8, 3, rng, padding=1),
        ReLU(),
        MaxPool2d(2),
        Conv2d(8, 16, 3, rng, padding=1),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Dense(flat, embed_dim, rng),
        ReLU(),
        Dense(embed_dim, num_classes, rng),
    ]
    return Sequential(layers, dtype=dtype)


def build_model(name: str, input_shape: tuple[int, ...], num_classes: int,
                rng: np.random.Generator, **kwargs) -> Sequential:
    """Construct a model by registry name.

    ``dtype`` (forwarded to every builder) selects parameter/activation
    precision: float64 default, ``dtype="float32"`` for speed/memory.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if name == "mlp":
        return build_mlp(input_shape, num_classes, rng, **kwargs)
    if name == "lenet_mini":
        return build_lenet_mini(input_shape, num_classes, rng, **kwargs)
    raise KeyError(f"unknown model '{name}'; available: {_MODEL_NAMES}")
