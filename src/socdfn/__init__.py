"""Feedforward-network training engine for battery state-of-charge regression.

Plain-numpy dense networks with hand-derived backpropagation, a
Coulomb-counting drive-cycle simulator for ground-truth data, K-fold
cross-validation, and a reproducible CLI.
"""

__version__ = "0.1.0"
