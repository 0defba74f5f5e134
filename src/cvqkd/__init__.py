"""Composable finite-size secret-key rates for Gaussian-modulated
coherent-state quantum key distribution."""

__version__ = "0.1.0"
