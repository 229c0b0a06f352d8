"""Numerical laboratory for radial Schrodinger heat flows in Lorentz spaces.

Solve positive harmonic profiles of inverse-square-type radial potentials,
flow mode data under the associated heat semigroups, and measure how fast
derivative norms decay between Lorentz spaces, against closed-form and
envelope predictions.
"""

__version__ = "0.1.0"
