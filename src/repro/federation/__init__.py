"""Federated learning core: parties, aggregation, rounds, accounting.

This package is the Flower/PySyft stand-in: an in-process FL simulator with
the same moving parts — parties that train locally and report updates, a
weighted FedAvg aggregation rule (with optional FedProx proximal term in the
local objective), per-round participant selection hooks, communication /
computation accounting, and an asynchronous federation engine (buffered
staleness-weighted aggregation under simulated client availability).
"""
