"""Roadside BLE beacon checkpoint tracking: radio model, rendezvous
probability, battery guide, drive-by simulator, deployment planner, and
the receiver-to-map reporting pipeline."""

__version__ = "0.1.0"
