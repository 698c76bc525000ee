"""FLIPS: Federated Learning with Intelligent Participant Selection.

Reimplementation of the selection middleware the paper builds on (Bhope et
al., Middleware '23) and uses in three places: the bootstrap phase, expert
updates, and new-expert training.  FLIPS clusters parties by their label
histograms and samples participants equitably across clusters so every label
regime is represented in each round, which is how ShiftEx realizes the
label-imbalance (mu/JSD) term of its assignment objective without manual
tuning.
"""
