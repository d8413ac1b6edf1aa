"""Shank-angle-based soft ankle exoskeleton control, simulated end to end.

The package wires a deterministic gait/cable plant to the estimation and
control stack: IMU-style kinematics and gait events (`gait_signals`), the
dual-Gaussian assistance profile and its per-stride adaptation (`profile`),
the coupled human-suit tendon model (`tendon`), the two-phase force/slack
controller (`controller`), the simulated world (`plant`), and the scenario
config and run (`harness`) with its `metrics` and `artifacts`.
"""

__version__ = "0.1.0"
