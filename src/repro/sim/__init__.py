"""Packet-level discrete-event network simulator (the ns-2 substitute)."""
