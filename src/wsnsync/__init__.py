"""Clock synchronization for wireless sensor networks.

Drifting-oscillator clock models, rate-and-offset synchronization protocols
in which each node averages its one-hop neighbours' offsets (a Newton-step
rate update plus two classic rate-averaging baselines), closed-form
convergence analysis with a Monte Carlo oracle, trace quality metrics, and a
deterministic event-driven network simulator.

Names are imported from their modules; the package exports only __version__.
"""

__version__ = "0.1.0"
