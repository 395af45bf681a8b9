"""Generalized q-fractional calculus: q-special functions, Jackson
integration, fractional integral and Caputo-type derivative operators, and a
Picard solver for q-fractional Cauchy problems."""

from .cauchy import *
from .errors import *
from .operators import *
from .qcalc import *
from .qcore import *

__version__ = "0.1.0"
