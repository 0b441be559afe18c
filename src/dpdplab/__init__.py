"""Desk-scale laboratory for dynamic pickup-and-delivery dispatching."""

__version__ = "0.1.0"
