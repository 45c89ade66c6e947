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
``orbit.retry_budget``    near-critical restarts per orbit slot
``orbit.smb_depth``       cylinder depth of the orbit entropy estimate
``ulam.bins``             transfer-operator grid size
``ulam.tol``              stationarity tolerance
``ulam.max_iters``        iteration cap
``induce.lo, induce.hi``  induction interval (family default when omitted)
``induce.tau_max``        return-time cap
``induce.tol``            endpoint resolution of the return tracker
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

import re
from dataclasses import dataclass, field, fields

from .errors import ConfigError

_INT_KEYS = {
    "sweep.steps", "orbit.n_iters", "orbit.sample_size", "orbit.retry_budget",
    "orbit.smb_depth", "ulam.bins", "ulam.max_iters", "induce.tau_max",
    "tail.n_max", "tail.sample_size", "seed",
}
_FLOAT_KEYS = {
    "sweep.from", "sweep.to", "ulam.tol", "induce.lo", "induce.hi",
    "induce.tol", "tail.lam", "tail.eps", "tail.delta",
}

_KEY_TO_FIELD = {
    "map.family": "family",
    "sweep.parameter": "sweep_parameter",
    "sweep.from": "sweep_from",
    "sweep.to": "sweep_to",
    "sweep.steps": "sweep_steps",
    "orbit.n_iters": "n_iters",
    "orbit.sample_size": "sample_size",
    "orbit.retry_budget": "retry_budget",
    "orbit.smb_depth": "smb_depth",
    "ulam.bins": "bins",
    "ulam.tol": "ulam_tol",
    "ulam.max_iters": "ulam_max_iters",
    "induce.lo": "induce_lo",
    "induce.hi": "induce_hi",
    "induce.tau_max": "tau_max",
    "induce.tol": "induce_tol",
    "tail.lam": "tail_lam",
    "tail.eps": "tail_eps",
    "tail.delta": "tail_delta",
    "tail.n_max": "tail_n_max",
    "tail.sample_size": "tail_sample_size",
    "tail.inject": "tail_inject",
    "seed": "seed",
    "out_dir": "out_dir",
}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs, with sensible defaults."""

    family: str = "doubling"
    map_params: dict = field(default_factory=dict)
    sweep_parameter: str | None = None
    sweep_from: float = 0.0
    sweep_to: float = 1.0
    sweep_steps: int = 11
    n_iters: int = 100_000
    sample_size: int = 64
    retry_budget: int = 8
    smb_depth: int = 64
    bins: int = 4096
    ulam_tol: float = 1e-10
    ulam_max_iters: int = 100_000
    induce_lo: float | None = None
    induce_hi: float | None = None
    tau_max: int = 20
    induce_tol: float = 1e-12
    tail_lam: float | None = None
    tail_eps: float | None = None
    tail_delta: float = 1e-6
    tail_n_max: int = 200
    tail_sample_size: int = 10_000
    tail_inject: str | None = None
    seed: int = 0
    out_dir: str = "."

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        if self.sweep_parameter is not None and self.sweep_steps < 2:
            raise ConfigError("sweep.steps must be at least 2")
        for key in ("ulam_tol", "induce_tol", "tail_delta"):
            v = getattr(self, key)
            if v is not None and not v > 0:
                raise ConfigError(f"{_FIELD_TO_KEY[key]} must be positive")
        for key in ("n_iters", "sample_size", "bins", "tau_max", "tail_n_max",
                    "tail_sample_size", "ulam_max_iters", "smb_depth"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{_FIELD_TO_KEY[key]} must be at least 1")
        if self.retry_budget < 0:
            raise ConfigError("orbit.retry_budget must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if (self.induce_lo is None) != (self.induce_hi is None):
            raise ConfigError("induce.lo and induce.hi must be given together")
        if self.induce_lo is not None and not self.induce_hi > self.induce_lo:
            raise ConfigError("induce.hi must exceed induce.lo")


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
    for f in fields(ExperimentConfig):
        v = getattr(config, f.name)
        if f.name not in ("family", "map_params") and v is not None:
            pairs.append((_FIELD_TO_KEY[f.name], v))
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
        elif key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        else:
            try:
                value = (int(raw) if key in _INT_KEYS else
                         float(raw) if key in _FLOAT_KEYS else raw)
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
            setattr(config, _KEY_TO_FIELD[key], value)
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
