"""Dimensions and component censuses of SL(2,C) representation varieties
of one-relator product-of-powers groups and their free products.

The package namespace holds only __version__; import the API from its
modules (sl2rep.dimension, sl2rep.census, sl2rep.oracle, ...), so that
`import sl2rep` loads neither numpy nor the oracle.
"""

__version__ = "0.1.0"
