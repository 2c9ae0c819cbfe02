"""Continuous-time directed information toolkit.

An exact enumeration engine for directed information over finite-alphabet
sequences, Monte Carlo estimators realizing the causal-estimation identities
on the Gaussian and Poisson feedback channels, the closed-form feedback rate
of the event-triggered Poisson channel, and capacity-per-unit-cost
optimization over binary inputs.  All information quantities are in nats.
"""

from . import capacity, core, gaussian, partition_di, poisson, quadrature

__version__ = "0.1.0"
