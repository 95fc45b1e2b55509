"""Steady end-to-end and per-layer benchmark harness (see README.md)."""
