"""Witt-design caps from the Veronese surface in PG(5,3).

Constructs the 12-cap of conic internal points around a surface point,
verifies its 5-(12,6,1) design structure and M12-sized automorphism group,
emits the extended ternary Golay code, and classifies the 81 layer
replacement twelve-sets.
"""

from . import cap, cosets, design, golay, gf3, pg, veronese

__version__ = "0.1.0"
