"""Gaussian knowledge-graph embeddings for network intent translation.

The package covers the full loop: a small RDF toolchain, KG2E-style
embedding models with expected-likelihood and KL scoring, margin-based
training with RMSProp, rank and classification evaluation, and the
keyword-to-verified-intent pipeline, plus a deterministic desk-scale
IKG generator and a command line front end. The package re-exports
nothing: import from its submodules.
"""

__version__ = "0.1.0"
