"""Dataclass <-> JSON for configs, reports and plans.

A config section is a JSON object whose keys are the fields of the one
dataclass that owns it. `parse_section` rejects anything else (an unknown
or misplaced key, a section that is not an object, a scalar or list item
of the wrong type, a float that is not finite) with a ConfigError that
names the section and key, so a typo never falls back to a default.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, fields


class ConfigError(ValueError):
    pass


# annotation -> accepted JSON types; other annotations pass unchecked
_SCALARS = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _matches(value, kind: str) -> bool:
    """Whether `value` fits a scalar annotation or a list (of lists) of
    one, such as `list[list[int]]`; a bool is never a number, nor a
    number a bool, and a float is a finite float64 (`json` also reads NaN,
    Infinity and integers beyond that range)."""
    item = kind.removeprefix("list[").removesuffix("]")
    if item != kind:
        return isinstance(value, list) and all(_matches(v, item) for v in value)
    want = _SCALARS.get(kind)
    return want is None or (isinstance(value, want)
                            and isinstance(value, bool) == (kind == "bool")
                            and (kind != "float" or abs(value) <= sys.float_info.max))


def parse_section(raw, section: str, types: dict) -> dict:
    """Copy of `raw` after checking it is an object whose keys all lie in
    `types` (key -> annotation) and whose scalars and (nested) scalar lists
    match their annotation.

    A missing section (None) reads as {}.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        what = f"config section {section!r}" if section else "the config"
        raise ConfigError(f"{what} must be a JSON object, "
                          f"got {type(raw).__name__}")
    for key, value in raw.items():
        name = f"{section}.{key}" if section else key
        if key not in types:
            raise ConfigError(f"unknown config key {name!r} "
                              f"(known keys: {', '.join(sorted(types))})")
        kind = types[key].removesuffix(" | None")
        if value is None and kind != types[key]:
            continue
        if not _matches(value, kind):
            raise ConfigError(f"config key {name!r} must be {kind}, "
                              f"got {value!r}")
    return dict(raw)


def field_types(cls) -> dict:
    """Field name -> annotation string (modules use postponed annotations)."""
    return {f.name: f.type for f in fields(cls)}


class Record:
    """Dataclass mixin: `to_dict` is `asdict`; `from_dict` is the
    constructor after `parse_section` and a check for required fields, and
    turns a value the class rejects into a ConfigError too. `save` writes
    `to_dict` as JSON; `load` reads it back through `from_dict`, naming
    the file in every error."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, section: str = ""):
        section = section or cls.__name__
        d = parse_section(d, section, field_types(cls))
        for f in fields(cls):
            if f.name not in d and f.default is MISSING \
                    and f.default_factory is MISSING:
                raise ConfigError(f"config key '{section}.{f.name}' is required")
        try:
            return cls(**d)
        except ValueError as e:
            raise ConfigError(f"config section {section!r}: {e}") from e

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except ValueError as e:  # not JSON, not UTF-8
                raise ConfigError(f"cannot read {path}: {e}") from e
        return cls.from_dict(raw, str(path))


def write_json(path, obj) -> None:
    """The byte layout of every JSON output: sorted keys, indent 2, newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
