"""Exact partition and cover solving through polynomial coefficient readout.

The package is organized in layers:

- :mod:`setpart.graphcore` -- immutable graphs and sparse-graph decompositions
- :mod:`setpart.encoding` -- family-grid placement, packed radix vectors
- :mod:`setpart.polyring` -- exact multivariate polynomials and transforms
- :mod:`setpart.engine` -- the partition/cover solver with optional family systems
- :mod:`setpart.problems` -- graph drivers (coloring, domatic, tours, matchings)
- :mod:`setpart.oracle` -- slow reference implementations for cross-checking
- :mod:`setpart.cli` -- command line front end
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
