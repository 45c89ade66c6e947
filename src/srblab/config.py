"""Plain-text experiment configuration.

Configs are line-oriented ``key = value`` files with dotted section
prefixes (``map.family``, ``sweep.from`` ...) and ``#`` comments; a ``#``
starts a comment at the start of a line or after whitespace, so
``out_dir = runs/#3`` keeps its ``#``.  Values round-trip bit-exactly:
floats serialise through ``repr``, so ``parse(serialize(c)) == c`` field
for field, and ``serialize`` refuses a value that would read back changed
(a string with surrounding blanks, a line break or `` #``, or one that
reads as a number).

Recognised keys
---------------
``map.family``            one of the built-in families
``map.<param>``           family parameters (``d``, ``slope``, ``a``, ``t``,
                          ``alpha``, ``a0``, ``lo``, ``hi``)
``sweep.parameter``       map parameter to sweep
``sweep.from, sweep.to``  sweep range
``sweep.steps``           number of rows (>= 2)
``orbit.n_iters``         orbit length for exponent estimates
``orbit.sample_size``     number of Monte Carlo orbits
``orbit.smb_depth``       cylinder depth of the orbit entropy estimate
``ulam.bins``             transfer-operator grid size
``ulam.max_iters``        iteration cap
``induce.lo, induce.hi``  induction interval (family default when omitted)
``induce.tau_max``        return-time cap
``tail.lam``              expansion-rate reference for slow-orbit fractions
``tail.eps``              recurrence budget
``tail.delta``            critical-set truncation radius
``tail.n_max``            largest time in the profile
``tail.sample_size``      points per profile
``tail.inject``           CSV path to load a profile from instead of sampling
``seed``                  RNG seed
``out_dir``               artifact directory
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .errors import ConfigError

_COMMENT = re.compile(r"(?:^|\s)#")


def _key(key: str, default):
    """A config field read from and written to the dotted ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs, with sensible defaults.

    Every field but ``map_params`` names its dotted config key; its
    annotation gives the value type a config file is read with.
    """

    family: str = _key("map.family", "doubling")
    map_params: dict = field(default_factory=dict)
    sweep_parameter: str | None = _key("sweep.parameter", None)
    sweep_from: float = _key("sweep.from", 0.0)
    sweep_to: float = _key("sweep.to", 1.0)
    sweep_steps: int = _key("sweep.steps", 11)
    n_iters: int = _key("orbit.n_iters", 100_000)
    sample_size: int = _key("orbit.sample_size", 64)
    smb_depth: int = _key("orbit.smb_depth", 64)
    bins: int = _key("ulam.bins", 4096)
    ulam_max_iters: int = _key("ulam.max_iters", 100_000)
    induce_lo: float | None = _key("induce.lo", None)
    induce_hi: float | None = _key("induce.hi", None)
    tau_max: int = _key("induce.tau_max", 20)
    tail_lam: float | None = _key("tail.lam", None)
    tail_eps: float | None = _key("tail.eps", None)
    tail_delta: float = _key("tail.delta", 1e-6)
    tail_n_max: int = _key("tail.n_max", 200)
    tail_sample_size: int = _key("tail.sample_size", 10_000)
    tail_inject: str | None = _key("tail.inject", None)
    seed: int = _key("seed", 0)
    out_dir: str = _key("out_dir", ".")

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        keys = {f.name: f.metadata.get("key") for f in fields(self)}
        if self.sweep_parameter is not None and self.sweep_steps < 2:
            raise ConfigError("sweep.steps must be at least 2")
        for name in ("tail_lam", "tail_eps", "tail_delta"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{keys[name]} must be positive")
        for name in ("sweep_from", "sweep_to", "induce_lo", "induce_hi", "tail_lam",
                     "tail_eps", "tail_delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{keys[name]} must be finite")
        for name in ("n_iters", "sample_size", "bins", "tau_max", "tail_n_max",
                     "tail_sample_size", "ulam_max_iters", "smb_depth"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{keys[name]} must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if (self.induce_lo is None) != (self.induce_hi is None):
            raise ConfigError("induce.lo and induce.hi must be given together")
        if self.induce_lo is not None and not self.induce_hi > self.induce_lo:
            raise ConfigError("induce.hi must exceed induce.lo")


#: the field each dotted key sets, in field order
_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}
#: how the text of a value becomes its field's annotated type (else a string)
_READERS = {"int": int, "float": float, "float | None": float}


def _format_value(v) -> str:
    if isinstance(v, bool):
        raise ConfigError("boolean config values are not used")
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def serialize(config: ExperimentConfig) -> str:
    """Render a config as ``key = value`` lines (round-trips bit-exactly).

    Raises
    ------
    ConfigError
        If some value would not read back unchanged.
    """
    pairs = [("map.family", config.family)]
    pairs += [(f"map.{k}", config.map_params[k]) for k in sorted(config.map_params)]
    pairs += [(key, getattr(config, f.name)) for key, f in _FIELDS.items()
              if key != "map.family" and getattr(config, f.name) is not None]
    lines = [f"{key} = {_format_value(value)}" for key, value in pairs]
    for line, (key, value) in zip(lines, pairs):
        try:
            same = list(_entries(line)) == [(key, value)]
        except ConfigError:
            same = False
        # NaN is the one value that never equals what it reads back as
        if not same and value == value:
            raise ConfigError(f"{key} = {value!r} would not read back unchanged")
    return "\n".join(lines) + "\n"


def _parse_scalar(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _entries(text: str):
    """``(key, value)`` of every key line of config text, values typed."""
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _COMMENT.split(line, 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key.startswith("map.") and key != "map.family":
            value = _parse_scalar(raw)
        elif key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        else:
            try:
                value = _READERS.get(_FIELDS[key].type, str)(raw)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r}") from None
        yield key, value


def parse(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines into a validated config.

    Raises
    ------
    ConfigError
        On malformed lines, unknown keys or failed validation.
    """
    config = ExperimentConfig()
    for key, value in _entries(text):
        if key.startswith("map.") and key != "map.family":
            config.map_params[key[4:]] = value
        else:
            setattr(config, _FIELDS[key].name, value)
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save_config(config: ExperimentConfig, path: str) -> None:
    """Serialise a config to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(config))
