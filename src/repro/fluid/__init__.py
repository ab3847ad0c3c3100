"""DCTCP / DT-DCTCP fluid models: nonlinear DDE simulation and linearisation."""
