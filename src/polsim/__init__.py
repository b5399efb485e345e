"""Proof-of-Location protocol node logic and wireless sensor network simulator."""
