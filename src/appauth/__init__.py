"""Continuous smartphone-user verification from foreground-app usage.

The package turns raw app/lock event logs into contextualized observation
sequences, trains per-user verification models (binary rules, edit
distance, Markov chain, and two smoothed HMM variants), and evaluates them
with the windowed genuine/impostor protocol (ROC, EER, intrusion latency).
"""

__version__ = "0.1.0"
