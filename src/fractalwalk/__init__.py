"""Random walks with tunable super-diffusive deviation, and the tools to probe them.

The package builds +-1 sequence distributions whose cumulative height wanders
farther than a uniform walk while remaining hard to predict, plus deterministic
fractal profiles, a fractional-Brownian-motion reference model, prediction
strategies, and estimators for deviation growth, unpredictability, and
opposite-excursion (inversion) structure.

Start with :class:`GeneratorSpec` / :func:`generate` for sampling,
:func:`deviation_stats` / :func:`estimate_delta` for measurement, and
``python -m fractalwalk`` (or the ``fractalwalk`` script) for the CLI.

The namespace is lazy (PEP 562): ``import fractalwalk`` loads no submodule and
not numpy.  A submodule loads when it or one of its public names is first
read, and ``__all__`` is built from the submodules' own ``__all__`` lists the
first time it is read, so each public name is declared once, where it is
defined.  Each CLI command likewise loads only the modules it runs.
"""

__version__ = "0.1.0"

# The submodules whose ``__all__`` make up the package's, in the order they are searched.
_SOURCES = ("errors", "seeding", "sequences", "seqio", "generators", "fractal", "fbm",
            "predictors", "laws", "analysis", "verify")


def __getattr__(name: str):
    if name in _SOURCES or name == "cli":
        # The builtin, unlike importlib.import_module, shows the load under -X importtime.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name == "__all__":
        global __all__
        __all__ = [n for source in _SOURCES for n in __getattr__(source).__all__]
        return __all__
    # Other dunders are tools' probes (``__wrapped__``, ``__test__``); they load nothing.
    if not name.startswith("__"):
        for source in _SOURCES:
            module = __getattr__(source)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES, "cli", *__getattr__("__all__")})
