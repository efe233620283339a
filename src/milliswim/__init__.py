"""Simulation and control toolkit for a single-tail undulatory milliswimmer."""

__version__ = "0.1.0"
