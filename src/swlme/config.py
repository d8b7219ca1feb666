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


# required keys; ic.name and topo.name also unlock their preset's parameter keys
REQUIRED_KEYS = (
    "model.N", "model.g", "model.variant",
    "grid.cells", "grid.xmin", "grid.xmax",
    "bc.kind", "ic.name", "time.t_end", "time.cfl", "output.path",
)
OPTIONAL_KEYS = ("topo.name", "output.every_steps", "output.snapshots")
# the key of each constructor argument a ParameterError can name
_ARGUMENT_KEYS = {
    "g": "model.g", "N": "model.N", "variant": "model.variant",
    "x_min": "grid.xmin", "x_max": "grid.xmax", "cells": "grid.cells",
    "ic_name": "ic.name", "topo_name": "topo.name", "boundary": "bc.kind",
    "t_end": "time.t_end", "cfl": "time.cfl",
    "output_every_steps": "output.every_steps", "output_snapshots": "output.snapshots",
}


def config_key(field: str) -> str:
    """The key of the argument a ParameterError names; `section_param` is `section.param`."""
    return _ARGUMENT_KEYS.get(field) or field.replace("_", ".", 1)


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
    for key in REQUIRED_KEYS:
        if key not in cfg:
            raise ConfigError(f"missing required key '{key}'")
    try:
        return _scenario(cfg)
    except ParameterError as err:
        raise ConfigError(f"key '{config_key(err.field)}': {err}") from err
    except ConfigError:
        raise
    except ValueError as err:  # not a constraint, e.g. a grid too large for numpy
        raise ConfigError(str(err)) from err


def _scenario(cfg: dict) -> Scenario:
    ic_name = cfg["ic.name"]
    ic_keys = _preset_keys("ic", ic_name)
    topo_name = cfg.get("topo.name", "flat")
    topo_keys = _preset_keys("topo", topo_name)

    allowed = set(REQUIRED_KEYS) | set(OPTIONAL_KEYS) | set(ic_keys) | set(topo_keys)
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}'")

    ic_params = {key.split(".", 1)[1]: _get(cfg, key, float)
                 for key in ic_keys if key in cfg}
    topo_params = {key.split(".", 1)[1]: _get(cfg, key, float)
                   for key in topo_keys if key in cfg}
    scenario = Scenario(
        params=ModelParams(g=_get(cfg, "model.g", float), N=_get(cfg, "model.N", int),
                           variant=cfg["model.variant"].lower()),
        grid=Grid1D(x_min=_get(cfg, "grid.xmin", float), x_max=_get(cfg, "grid.xmax", float),
                    cells=_get(cfg, "grid.cells", int)),
        ic_name=ic_name, ic_params=ic_params,
        topo_name=topo_name, topo_params=topo_params,
        boundary=cfg["bc.kind"],
        t_end=_get(cfg, "time.t_end", float),
        cfl=_get(cfg, "time.cfl", float),
        output_every_steps=_get(cfg, "output.every_steps", int, default=0),
        output_snapshots=_get(cfg, "output.snapshots", int, default=0),
    )
    scenario.initial_states()  # raises on a non-positive depth
    return scenario
