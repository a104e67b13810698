"""Seeded benchmark of the canonforms library and CLI; see run.py."""
