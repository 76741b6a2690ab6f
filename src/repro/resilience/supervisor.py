"""The supervised worker fleet under its ``pool`` name.

``Supervisor`` is :class:`~repro.resilience.backends.ProcessFleet`, the
one process fleet behind both the ``pool`` and ``nodes`` backends; see
:mod:`repro.resilience.backends` for its dispatch and recovery model.
"""

from repro.resilience.backends import ProcessFleet, SupervisedTask

__all__ = ["SupervisedTask", "Supervisor"]

#: The fleet under its ``pool`` name (round-robin homes over workers).
Supervisor = ProcessFleet
