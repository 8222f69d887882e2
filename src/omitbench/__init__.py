"""Two-tone microwave transmission toolkit for optomechanical cavities.

Simulates, sweeps and fits the probe transmission of a pumped side-coupled
cavity whose response carries a narrow mechanically induced transparency or
absorption feature.  All internal frequencies and rates are angular (rad/s);
file and CLI boundaries speak Hz.
"""

__version__ = "0.1.0"
