"""Every dataclass under ``repro`` has resolvable annotations.

With postponed annotations a misspelt or never-imported name in a field
annotation only fails when something resolves it (``dataclasses``
tooling, ``typing.get_type_hints``); this walks every module and
resolves every dataclass it defines.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import repro


def _dataclasses():
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found.append(obj)
    return found


def test_every_dataclass_annotation_resolves():
    classes = _dataclasses()
    assert len(classes) >= 72
    unresolved = {}
    for cls in classes:
        try:
            typing.get_type_hints(cls)
        except Exception as exc:  # noqa: BLE001 - report every failure
            unresolved[f"{cls.__module__}.{cls.__qualname__}"] = repr(exc)
    assert unresolved == {}
