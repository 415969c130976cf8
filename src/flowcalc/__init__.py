"""Calculus and CLI for sequentially composed binary-outcome flow models.

A model pipes a base Bernoulli probability through ordered flows, each of
which rescales odds, risk, or survival by the exponential of its own linear
predictor.  The package parses the model language, evaluates the implied
probabilities, extracts effect measures, marginalizes over covariates, and
mechanically checks which flow orderings are observationally distinct.

``import flowcalc`` loads none of its modules.  The package re-exports each
name in the ``__all__`` of ``dsl``, ``engine``, ``marginal``, ``measures``
and ``orderings``, and loads a module on first use of one of its names
(PEP 562): ``flowcalc.evaluate`` imports ``dsl`` and ``engine`` only.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    """Return the submodule ``name``, or else the ``name`` of the first of
    ``dsl``, ``engine``, ``marginal``, ``measures`` and ``orderings`` whose
    ``__all__`` lists it, importing no module past that one.  A name found in
    one of them is kept in the package, as an eager import would bind it, so
    its next lookup does not come here."""
    modules = (importlib.import_module(f"{__name__}.{m}") for m in ("dsl", "engine", "marginal", "measures", "orderings"))
    if name == "__all__":
        return globals().setdefault(name, [*(n for module in modules for n in module.__all__), "__version__"])
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        for module in modules:
            if name in module.__all__:
                return globals().setdefault(name, getattr(module, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
