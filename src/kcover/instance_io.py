"""Instance files: a single JSON document, replayable and human-diffable.

Schema::

    {
      "target_len": 2.0,
      "quota": 2,
      "setting": {"length": "UL", "count": "UN"},      # FL adds "m"
      "items": [[[0.0, 1.0]], [[0.41, 1.41]], ...]     # one list of [o, d]
    }                                                  # parts per batch

Items appear in release order.  Validation failures carry the offending
field path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from .errors import KcoverError, SchemaError
from .intervals import Batch, Instance, Setting, SubInterval


def instance_to_dict(inst: Instance) -> dict:
    setting: dict = {"length": inst.setting.length, "count": inst.setting.count}
    if inst.setting.m is not None:
        setting["m"] = inst.setting.m
    return {
        "target_len": inst.target_len,
        "quota": inst.quota,
        "setting": setting,
        "items": [[[p.start, p.end] for p in b.parts] for b in inst.items],
    }


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return number


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    for key in ("target_len", "quota", "setting", "items"):
        if key not in doc:
            raise SchemaError(f"{key}: missing required field")
    target_len = _number(doc["target_len"], "target_len")
    quota = doc["quota"]
    if isinstance(quota, bool) or not isinstance(quota, int):
        raise SchemaError(f"quota: expected an integer, got {quota!r}")
    sdoc = doc["setting"]
    if not isinstance(sdoc, dict):
        raise SchemaError("setting: expected an object")
    length = sdoc.get("length")
    count = sdoc.get("count")
    m = sdoc.get("m")
    try:
        setting = Setting(length, count, None if m is None else _number(m, "setting.m"))
    except KcoverError as exc:
        raise SchemaError(f"setting: {exc}") from exc
    items_doc = doc["items"]
    if not isinstance(items_doc, list):
        raise SchemaError("items: expected a list")
    batches = []
    for i, parts_doc in enumerate(items_doc):
        if not isinstance(parts_doc, list) or not parts_doc:
            raise SchemaError(f"items[{i}]: expected a non-empty list of [o, d]")
        parts = []
        for j, pair in enumerate(parts_doc):
            where = f"items[{i}][{j}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{where}: expected [o, d]")
            o = _number(pair[0], f"{where}[0]")
            d = _number(pair[1], f"{where}[1]")
            if d <= o:
                raise SchemaError(
                    f"{where}: start {o!r} must be strictly below end {d!r}"
                )
            try:
                parts.append(SubInterval(o, d))
            except KcoverError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
        try:
            batches.append(Batch(tuple(parts)))
        except KcoverError as exc:
            raise SchemaError(f"items[{i}]: {exc}") from exc
    try:
        return Instance(target_len, quota, setting, tuple(batches))
    except KcoverError as exc:
        raise SchemaError(str(exc)) from exc


def write_json(doc, path: Union[str, Path]) -> None:
    """Write `doc` as indented JSON with a final newline: every JSON file
    kcover writes (instances, game records, counterexamples) goes here."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_instance(inst: Instance, path: Union[str, Path]) -> None:
    write_json(instance_to_dict(inst), path)


def read_instance(path: Union[str, Path]) -> Instance:
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal over Python's digit limit
        raise SchemaError(f"{p}: unreadable JSON: {exc}") from exc
    try:
        return instance_from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"{p}: {exc}") from exc
