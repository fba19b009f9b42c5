"""Experiment orchestration: config loading, sweep dispatch, CSV emission.

Configs are JSON documents ``{"experiment": ..., "seed": ..., "parameters":
{...}, "output_dir": ...}``.  Every run writes its CSVs plus a
``manifest.json`` echoing the config and checksumming each output; a rerun
with the same config and seed reproduces every CSV byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidArgument
from .experiments import RUNNERS, SPECS

SEED_ENV_VAR = "QCS_SEED"

# longest value repr that a config error message echoes in full
_ECHO_CHARS = 40


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    parameters: object  # the experiment's spec, e.g. experiments.SuccessVsM
    output_dir: str = "out"


@dataclass
class RunManifest:
    experiment: str
    seed: int
    parameters: object
    toolkit_version: str
    wall_time_s: float
    outputs: dict  # CSV file name -> sha256 hex digest


class _LongInt:
    """A JSON integer too long for ``int()`` (over 4300 digits), kept until
    the field holding it is refused by name."""

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))

    def __repr__(self) -> str:
        return f"an integer of {self.digits} digits"


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInt(text)


def _echo(value) -> str:
    """``repr(value)`` cut to a fixed length for an error message."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def _resolve_seed(doc: dict, seed_override, env) -> int:
    if seed_override is not None:
        return int(seed_override)
    if "seed" in doc:
        if isinstance(doc["seed"], _LongInt):
            raise ConfigError("seed", f"is out of range: {doc['seed']!r} is too long")
        if not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool):
            raise ConfigError("seed", "has the wrong type: expected an integer")
        return doc["seed"]
    env_seed = env.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            return int(env_seed)
        except ValueError:
            msg = f"has the wrong type: {SEED_ENV_VAR} is not an integer"
            raise ConfigError("seed", msg) from None
    raise ConfigError("seed", "is required but missing")


def _convert(name: str, hint, value):
    """Convert a JSON value to a spec field's annotation: int, finite float,
    str, ``X | None``, ``tuple[X, ...]`` (a non-empty list) or ``tuple[X, Y]``,
    each ``Annotated`` bound checked per element.  Raises a ConfigError."""
    if isinstance(value, _LongInt):
        raise ConfigError(name, f"is out of range: {value!r} is too long")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        value = _convert(name, args[0], value)
        for bound in args[1:]:
            if not bound.test(value):
                raise ConfigError(name, f"is out of range: {_echo(value)} is not {bound.text}")
        return value
    if origin in (typing.Union, types.UnionType):
        return None if value is None else _convert(name, args[0], value)
    if origin is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(name, "has the wrong type: expected a non-empty list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(name, f"has the wrong type: expected a list of {len(args)} items")
        return tuple(_convert(f"{name}[{i}]", a, v) for i, (a, v) in enumerate(zip(args, value)))
    if isinstance(value, bool):
        raise ConfigError(name, f"has the wrong type: expected {hint.__name__}, got a boolean")
    if hint is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if hint is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(name, "is out of range: too large for a float") from None
    if not isinstance(value, hint):
        msg = f"has the wrong type: expected {hint.__name__}, got {_echo(value)}"
        raise ConfigError(name, msg)
    if hint is float and not math.isfinite(value):
        raise ConfigError(name, f"is out of range: {_echo(value)} is not a finite number")
    return value


def load_config(
    path, seed_override=None, out_override=None, threads=1, env=None
) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Seed priority: explicit override, then the config file, then the
    QCS_SEED environment variable.  Unknown experiments and badly typed or
    unknown parameters, values outside a field's range, and an output
    directory that lies at or under an existing file, are rejected with the
    offending field named.
    """
    # every run is single-threaded; the parameter stays for callers that pass 1
    if threads != 1:
        raise InvalidArgument(f"threads must be 1, not {threads!r}: runs are single-threaded")
    env = os.environ if env is None else env
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_int=_parse_int)
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "has the wrong type: config must be a JSON object")
    if "experiment" not in doc:
        raise ConfigError("experiment", "is required but missing")
    name = doc["experiment"]
    if not isinstance(name, str):
        raise ConfigError("experiment", "has the wrong type: expected a string")
    if name not in SPECS:
        raise ConfigError("experiment", f"names an unknown experiment: {name!r}")
    seed = _resolve_seed(doc, seed_override, env)
    if seed < 0:  # else SeedSequence refuses it only once the run starts
        raise ConfigError("seed", f"is out of range: {seed} is negative")
    raw_params = doc.get("parameters", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("parameters", "has the wrong type: expected an object")
    hints = typing.get_type_hints(SPECS[name], include_extras=True)
    values = {}
    for key, value in raw_params.items():
        if key not in hints:
            raise ConfigError(key, "has the wrong type: not a parameter of this experiment")
        values[key] = _convert(key, hints[key], value)
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir", "has the wrong type: expected a string")
    if out_override is not None:
        output_dir = str(out_override)
    _check_output_dir(output_dir)
    return ExperimentConfig(
        experiment=name,
        seed=seed,
        parameters=SPECS[name](**values),
        output_dir=output_dir,
    )


def _check_output_dir(output_dir: str) -> None:
    """Refuse an output directory whose nearest existing path is not a
    directory, which ``run_experiment`` would learn only after the sweep."""
    path = Path(output_dir)
    for existing in (path, *path.parents):
        if existing.is_dir():
            return
        # a dangling symlink does not "exist", but mkdir cannot replace it
        if existing.exists() or existing.is_symlink():
            msg = f"is out of range: {existing} exists and is not a directory"
            raise ConfigError("output_dir", msg)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def emit_results(rows, schema, path) -> str:
    """Write a CSV (header + rows, LF endings, 9-significant-digit floats)
    and return its sha256 hex digest."""
    schema = tuple(schema)
    lines = [",".join(schema)]
    for row in rows:
        if len(row) != len(schema):
            raise ConfigError("rows", "has the wrong type: row width does not match the schema")
        lines.append(",".join(_format_value(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    return hashlib.sha256(payload).hexdigest()


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Run the configured sweep, then write its outputs plus a manifest."""
    runner = RUNNERS[cfg.experiment]
    started = time.perf_counter()
    tables = runner(cfg.parameters, np.random.SeedSequence(cfg.seed))
    wall_time_s = round(time.perf_counter() - started, 6)
    # made only now, so a run that fails leaves no directory behind
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for filename in sorted(tables):
        schema, rows = tables[filename]
        outputs[filename] = emit_results(rows, schema, out_dir / filename)
    manifest = RunManifest(
        experiment=cfg.experiment,
        seed=cfg.seed,
        parameters=cfg.parameters,
        toolkit_version=__version__,
        wall_time_s=wall_time_s,
        outputs=outputs,
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")
    return manifest
