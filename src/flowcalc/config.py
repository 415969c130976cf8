"""Run configurations: JSON files that bind a model to its inputs.

A config carries the model text, parameter values (under canonical
``f{k}.name`` keys or display aliases), covariate values, and optional
finite-support covariate distributions for marginalization:

    {
      "model": "y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+trt1) | ScRisk0(0+trt2)",
      "aliases": {"f1.intercept": "alpha0", "f2.trt1": "beta"},
      "params": {"alpha0": 0.0, "f1.age": 0.0, "beta": 0.1823, "f3.trt2": -0.223},
      "covariates": {"age": 40, "trt1": 1, "trt2": 1},
      "distributions": {
        "trt2": [
          {"context": {"trt1": 0}, "value": 1, "probability": 0.4},
          {"context": {"trt1": 0}, "value": 0, "probability": 0.6},
          {"context": {"trt1": 1}, "value": 1, "probability": 0.6},
          {"context": {"trt1": 1}, "value": 0, "probability": 0.4}
        ]
      }
    }

Aliases map canonical parameter names to display names, one to one; both
forms are accepted wherever a parameter is named (params keys, --bind,
--vary).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .dsl import ModelSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "NameResolver", "CONFIG_DIR_ENV"]

CONFIG_DIR_ENV = "FLOWCALC_CONFIG_DIR"


class ConfigError(ValueError):
    """The config file is missing, unreadable, or structurally wrong."""


@dataclass
class RunConfig:
    """Parsed contents of a config file (or an empty stand-in)."""

    model: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    covariates: dict[str, float] = field(default_factory=dict)
    distributions: dict[str, list] = field(default_factory=dict)


def _as_number_map(raw, what: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object, got {type(raw).__name__}")
    out: dict[str, float] = {}
    for key, value in raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{what}[{key!r}] must be a number, got {value!r}")
        try:
            out[str(key)] = float(value)
        except OverflowError:
            raise ConfigError(f"{what}[{key!r}] is too large for a float") from None
    return out


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON config.

    A relative path that does not exist as given is also tried under the
    directory named by the FLOWCALC_CONFIG_DIR environment variable.
    """
    p = Path(path)
    if not p.exists() and not p.is_absolute():
        env_dir = os.environ.get(CONFIG_DIR_ENV)
        if env_dir:
            candidate = Path(env_dir) / path
            if candidate.exists():
                p = candidate
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        # ValueError: bad JSON, bad UTF-8 or an integer past Python's digit
        # limit; RecursionError: arrays or objects nested too deep to decode.
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    unknown = set(raw) - {"model", "params", "aliases", "covariates", "distributions"}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    model = raw.get("model")
    if model is not None and not isinstance(model, str):
        raise ConfigError(f"model must be a string, got {type(model).__name__}")
    aliases_raw = raw.get("aliases", {})
    if not isinstance(aliases_raw, dict) or not all(
        isinstance(v, str) for v in aliases_raw.values()
    ):
        raise ConfigError("aliases must map canonical parameter names to display strings")
    distributions = raw.get("distributions", {})
    if not isinstance(distributions, dict) or not all(
        isinstance(v, list) for v in distributions.values()
    ):
        raise ConfigError("distributions must map covariate names to row lists")
    return RunConfig(
        model=model,
        params=_as_number_map(raw.get("params", {}), "params"),
        aliases={str(k): v for k, v in aliases_raw.items()},
        covariates=_as_number_map(raw.get("covariates", {}), "covariates"),
        distributions={str(k): v for k, v in distributions.items()},
    )


class NameResolver:
    """Resolve user-facing names against one spec's parameters and covariates.

    Parameters may be named canonically (``f2.trt1``) or by a config alias
    (``beta``); covariates by the name the model references.  The alias map
    must be one to one, cover only real parameter names, and never shadow a
    canonical name.
    """

    def __init__(self, spec: ModelSpec, aliases: Mapping[str, str] | None = None):
        self._canonical = set(spec.parameter_names)
        self._covariates = set(spec.covariate_names)
        aliases = dict(aliases or {})
        bad = sorted(set(aliases) - self._canonical)
        if bad:
            raise ConfigError(f"aliases for unknown parameters: {', '.join(bad)}")
        display = list(aliases.values())
        if len(set(display)) != len(display):
            raise ConfigError("alias display names must be distinct")
        shadowing = sorted(set(display) & self._canonical)
        if shadowing:
            raise ConfigError(f"aliases shadow canonical names: {', '.join(shadowing)}")
        self._display_to_canonical = {v: k for k, v in aliases.items()}

    def param(self, name: str) -> str | None:
        """Canonical parameter name for ``name``, or None if not a parameter."""
        if name in self._canonical:
            return name
        return self._display_to_canonical.get(name)

    def resolve(self, name: str, covariates: Mapping[str, float]) -> tuple[str, str] | None:
        """``("param", canonical)`` or ``("covariate", name)`` for a --bind or
        --vary name, or None if it is neither.  A name bound in
        ``covariates`` counts as a covariate even if the model never uses it."""
        canonical = self.param(name)
        if canonical is not None:
            return "param", canonical
        if name in self._covariates or name in covariates:
            return "covariate", name
        return None

    def resolve_params(self, raw: Mapping[str, float]) -> dict[str, float]:
        """Canonicalize a parameter mapping, rejecting unknowns and duplicates."""
        out: dict[str, float] = {}
        for key, value in raw.items():
            canonical = self.param(key)
            if canonical is None:
                raise ConfigError(f"unknown parameter name {key!r}")
            if canonical in out:
                raise ConfigError(f"parameter {canonical!r} bound more than once")
            out[canonical] = value
        return out

    def apply_binds(
        self,
        params: dict[str, float],
        covariates: dict[str, float],
        binds: Sequence[str],
    ) -> None:
        """Apply ``name=value`` overrides, to parameters or covariates."""
        for bind in binds:
            name, _, text = bind.partition("=")
            if not _:
                raise ConfigError(f"bad --bind {bind!r}: expected name=value")
            try:
                value = float(text)
            except ValueError:
                raise ConfigError(f"bad --bind {bind!r}: {text!r} is not a number") from None
            resolved = self.resolve(name, covariates)
            if resolved is None:
                raise ConfigError(f"--bind name {name!r} is neither a parameter nor a covariate")
            kind, target = resolved
            (params if kind == "param" else covariates)[target] = value
