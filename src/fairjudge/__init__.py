"""Batch audit engine for measuring judicial fairness of LLM sentencing predictions."""

__version__ = "0.1.0"
