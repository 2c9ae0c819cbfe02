"""Continuous-time directed information toolkit.

An exact enumeration engine for directed information over finite-alphabet
sequences, Monte Carlo estimators realizing the causal-estimation identities
on the Gaussian and Poisson feedback channels, the closed-form feedback rate
of the event-triggered Poisson channel, and capacity-per-unit-cost
optimization over binary inputs.  All information quantities are in nats.
"""

from .core import (
    DiEstimate,
    FinitePmf,
    RngSpec,
    SamplePath,
    poisson_loss,
)
from .partition_di import (
    Grouping,
    JointSequencePmf,
    conservation_residual,
    directed_info,
    grouped_directed_info,
    mutual_information,
    reverse_directed_info,
)
from .gaussian import (
    GaussianFeedbackModel,
    causal_mmse_integral,
    closed_form_di_constant_signal,
    constant_signal_model,
    delayed_echo_model,
    directed_info_gaussian_mc,
    directed_info_gaussian_sweep,
    exact_filter_constant_signal,
    mismatched_relent_gaussian,
    simulate_awgn,
)
from .poisson import (
    ChannelTrajectory,
    PoissonFeedbackModel,
    di_rate_analytic,
    di_rate_mc,
    interarrival_entropy,
    mismatched_relent_poisson,
    renewal_posterior_mean,
    simulate_channel,
    stationary_intensity_pmf,
)
from .capacity import (
    CapacityPoint,
    binary_rate,
    capacity_curve,
    optimize_binary,
    unit_cost_identity_check,
)

__version__ = "0.1.0"
