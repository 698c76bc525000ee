"""Pure-numpy neural network substrate.

The paper trains LeNet-5 / ResNet / DenseNet clients in PyTorch; this package
provides the equivalent substrate at simulator scale: explicitly
differentiated layers, a :class:`~repro.nn.network.Sequential` container
exposing both logits and the penultimate-layer *features* ShiftEx uses for
covariate-shift detection, and a local SGD/FedProx training loop.

All layers are gradient-checked in the test suite against central finite
differences.
"""
