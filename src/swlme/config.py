"""Flat `section.key = value` configuration files and scenario construction.

The format is deliberately minimal: one assignment per line, `#` starts a
comment, no quoting or nesting.  Unknown keys are rejected by name, so a
typo cannot silently fall back to a default.  The parameter keys each
preset accepts come from the solver's preset table.  The full schema lives
in docs/config.md.
"""

from __future__ import annotations

import numpy as np

from swlme.model import ModelParams, ParameterError
from swlme.solver import Grid1D, Scenario, _preset


class ConfigError(ValueError):
    """A configuration problem, with the offending key in the message."""


# every key but the preset parameters: key -> (constructor argument, type[, default]),
# in the order they are parsed.  A key with a default is optional; ic.name and topo.name
# also unlock their preset's parameter keys; output.path is the command's, no argument.
_KEYS = {
    "model.N": ("N", int), "model.g": ("g", float), "model.variant": ("variant", str),
    "grid.cells": ("cells", int), "grid.xmin": ("x_min", float), "grid.xmax": ("x_max", float),
    "bc.kind": ("boundary", str), "ic.name": ("ic_name", str),
    "time.t_end": ("t_end", float), "time.cfl": ("cfl", float), "output.path": (None, str),
    "topo.name": ("topo_name", str, "flat"), "output.snapshots": ("output_snapshots", int, 0),
    "output.every_steps": ("output_every_steps", int, 0),
}


def config_key(field: str) -> str:
    """The key of the argument a ParameterError names; `section_param` is `section.param`."""
    return next((key for key, (arg, *_) in _KEYS.items() if arg == field),
                field.replace("_", ".", 1))


def parse_config(text: str) -> dict:
    """Parse config text into an ordered key -> raw string value mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key or not key or not value:
            raise ConfigError(f"line {lineno}: malformed entry '{raw.strip()}'")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(cfg: dict) -> str:
    """Echo an accepted configuration; re-parsing yields the same mapping."""
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def _get(cfg: dict, key: str, kind, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}'")
    raw = cfg[key]
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected {kind.__name__}, got '{raw}'") from None
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got '{raw}'")
    return value


def _preset_keys(section: str, name: str) -> list:
    """Config keys `section.parameter` of a preset; ParameterError on an unknown preset."""
    return [f"{section}.{param}" for param in _preset(section, name, {})]


def build_scenario(cfg: dict) -> Scenario:
    """Validate a parsed config and construct the scenario it describes.

    The constructors enforce every constraint on a value; a ParameterError
    they raise becomes a ConfigError that names the argument's key.
    """
    try:
        return _scenario(cfg)
    except ParameterError as err:
        raise ConfigError(f"key '{config_key(err.field)}': {err}") from err
    except ConfigError:
        raise
    except ValueError as err:  # not a constraint, e.g. a grid too large for numpy
        raise ConfigError(str(err)) from err


def _scenario(cfg: dict) -> Scenario:
    args = {arg: _get(cfg, key, *spec) for key, (arg, *spec) in _KEYS.items()}
    presets = {s: _preset_keys(s, args[f"{s}_name"]) for s in ("ic", "topo")}
    for key in cfg:
        if key not in _KEYS and not any(key in keys for keys in presets.values()):
            raise ConfigError(f"unknown key '{key}'")

    params = {section: {key.split(".", 1)[1]: _get(cfg, key, float) for key in keys if key in cfg}
              for section, keys in presets.items()}
    del args[None]  # output.path
    return Scenario(
        params=ModelParams(g=args.pop("g"), N=args.pop("N"), variant=args.pop("variant").lower()),
        grid=Grid1D(x_min=args.pop("x_min"), x_max=args.pop("x_max"), cells=args.pop("cells")),
        ic_params=params["ic"], topo_params=params["topo"], **args,
    )
