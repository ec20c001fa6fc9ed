"""Random walks with tunable super-diffusive deviation, and the tools to probe them.

The package builds +-1 sequence distributions whose cumulative height wanders
farther than a uniform walk while remaining hard to predict, plus deterministic
fractal profiles, a fractional-Brownian-motion reference model, prediction
strategies, and estimators for deviation growth, unpredictability, and
opposite-excursion (inversion) structure.

Start with :class:`GeneratorSpec` / :func:`generate` for sampling,
:func:`deviation_stats` / :func:`estimate_delta` for measurement, and
``python -m fractalwalk`` (or the ``fractalwalk`` script) for the CLI.
"""

from . import analysis, errors, fbm, fractal, generators, predictors, seeding, seqio, sequences, verify
from .errors import *
from .seeding import *
from .sequences import *
from .seqio import *
from .generators import *
from .fractal import *
from .fbm import *
from .predictors import *
from .analysis import *
from .verify import *

__version__ = "0.1.0"

# The public names are each submodule's own ``__all__``, listed once there.
__all__ = [
    *errors.__all__,
    *seeding.__all__,
    *sequences.__all__,
    *seqio.__all__,
    *generators.__all__,
    *fractal.__all__,
    *fbm.__all__,
    *predictors.__all__,
    *analysis.__all__,
    *verify.__all__,
]
