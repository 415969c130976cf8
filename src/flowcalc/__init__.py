"""Calculus and CLI for sequentially composed binary-outcome flow models.

A model pipes a base Bernoulli probability through ordered flows, each of
which rescales odds, risk, or survival by the exponential of its own linear
predictor.  The package parses the model language, evaluates the implied
probabilities, extracts effect measures, marginalizes over covariates, and
mechanically checks which flow orderings are observationally distinct.
"""

from . import dsl, engine, marginal, measures, orderings
from .dsl import *
from .engine import *
from .marginal import *
from .measures import *
from .orderings import *

__version__ = "0.1.0"

__all__ = [*dsl.__all__, *engine.__all__, *marginal.__all__, *measures.__all__, *orderings.__all__, "__version__"]
