"""bellhv: hidden-variable polarizer transmission and Bell-operator bounds.

A numerical laboratory with two halves that meet in the middle:

* transmission / montecarlo / malusfit: a local stochastic model of photon
  pairs passing polarizers, its cosine-squared intensity curve, and CHSH
  estimators with and without coincidence post-selection;
* bell / linalg: finite-dimensional Bell operators and the three
  commutation-dependent expectation limits 2, 2*sqrt(2), 2*sqrt(3).

Shared plumbing lives in quadrature, optimize, rng, angles, and errors.
Import names from their modules, e.g. `from bellhv.bell import search_bound`.
"""

__version__ = "0.1.0"
