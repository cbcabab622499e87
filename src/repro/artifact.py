"""Declarative schemas for the repo's JSON artifacts (stdlib only).

Each artifact kind is declared once, in its producing module, as a
:class:`Schema` that is its validator, writer and reader and fixes its
on-disk format (indent, key order), so files stay byte-stable.

A *spec* is a function ``spec(value, path)`` that returns nothing or
raises :class:`ArtifactSchemaError` ``"<json path>: <why>"``.  Object
fields are read with ``dict.get``: an absent field reads as ``None``,
which only a :func:`nullable` spec accepts; unnamed fields are allowed.
Rules a field spec cannot state (orderings, cross-field counts) are the
schema's ``checks``, run on the whole document after its fields pass.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, NoReturn, Optional, Sequence, Union

Spec = Callable[[Any, str], None]
Check = Callable[[Dict[str, Any]], None]
PathLike = Union[str, "os.PathLike[str]"]


class ArtifactSchemaError(ValueError):
    """A document does not conform to its artifact schema."""


def fail(path: str, why: str) -> NoReturn:
    raise ArtifactSchemaError(f"{path}: {why}")


def _typed(ok: Callable[[Any], bool], why: str) -> Spec:
    def spec(value: Any, path: str) -> None:
        if not ok(value):
            fail(path, why)

    return spec


def integer(minimum: Optional[int] = 0) -> Spec:
    """An int, never a bool, ``>= minimum`` (``None``: any int)."""
    return _typed(
        lambda v: isinstance(v, int) and not isinstance(v, bool)
        and (minimum is None or v >= minimum),
        "expected int" if minimum is None else f"expected int >= {minimum}",
    )


def number(non_negative: bool = False) -> Spec:
    """An int or float, never a bool."""
    return _typed(
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and (v >= 0 or not non_negative),
        "expected non-negative number" if non_negative else "expected number",
    )


def string(non_empty: bool = False) -> Spec:
    return _typed(
        lambda v: isinstance(v, str) and (v != "" or not non_empty),
        "expected non-empty string" if non_empty else "expected string",
    )


def boolean() -> Spec:
    return _typed(lambda v: isinstance(v, bool), "expected bool")


def scalar() -> Spec:
    """A JSON scalar: number, string, bool or null."""
    return _typed(lambda v: v is None or isinstance(v, (int, float, str)), "expected scalar")


def one_of(*options: Any) -> Spec:
    return _typed(lambda v: v in options, f"expected one of {options}")


def nullable(inner: Spec) -> Spec:
    def spec(value: Any, path: str) -> None:
        if value is not None:
            inner(value, path)

    return spec


def array(item: Optional[Spec] = None, non_empty: bool = False) -> Spec:
    """A list whose elements all match ``item`` (if given)."""

    def spec(value: Any, path: str) -> None:
        if not isinstance(value, list) or (non_empty and not value):
            fail(path, "expected non-empty array" if non_empty else "expected array")
        if item is not None:
            for i, element in enumerate(value):
                item(element, f"{path}[{i}]")

    return spec


def fixed(*items: Spec) -> Spec:
    """A list of exactly ``len(items)`` elements, matched positionally."""

    def spec(value: Any, path: str) -> None:
        if not isinstance(value, list) or len(value) != len(items):
            fail(path, f"expected array of {len(items)}")
        for i, (item, element) in enumerate(zip(items, value)):
            item(element, f"{path}[{i}]")

    return spec


def obj(fields: Optional[Dict[str, Spec]] = None) -> Spec:
    """An object whose named fields match their specs."""

    def spec(value: Any, path: str) -> None:
        if not isinstance(value, dict):
            fail(path, f"expected object, got {type(value).__name__}")
        for name, field in (fields or {}).items():
            field(value.get(name), f"{path}.{name}")

    return spec


def mapping(key: Spec, value: Spec) -> Spec:
    """An object used as a map: every key matches ``key``, every value ``value``."""

    def spec(doc: Any, path: str) -> None:
        if not isinstance(doc, dict):
            fail(path, "expected object")
        for k, v in doc.items():
            key(k, path)
            value(v, f"{path}[{k!r}]")

    return spec


def tagged(key: str, what: str, cases: Dict[str, Spec]) -> Spec:
    """An object whose string field ``key`` picks the spec it must match."""

    def spec(value: Any, path: str) -> None:
        tag = value.get(key) if isinstance(value, dict) else None
        if not isinstance(tag, str) or tag not in cases:
            fail(f"{path}.{key}", f"unknown {what} {tag!r}")
        cases[tag](value, path)

    return spec


class Schema:
    """One artifact kind: ``schema`` tag, field specs, whole-document
    checks, and on-disk JSON format."""

    def __init__(self, tag: str, fields: Dict[str, Spec], checks: Sequence[Check] = (),
                 indent: int = 2, sort_keys: bool = False) -> None:
        self.tag = tag
        self.fields = obj(fields)
        self.checks = tuple(checks)
        self.indent = indent
        self.sort_keys = sort_keys

    def validate(self, doc: Any) -> Dict[str, Any]:
        """Returns ``doc`` unchanged, or raises :class:`ArtifactSchemaError`."""
        if not isinstance(doc, dict):
            fail("$", f"expected object, got {type(doc).__name__}")
        if doc.get("schema") != self.tag:
            fail("$.schema", f"expected {self.tag!r}, got {doc.get('schema')!r}")
        self.fields(doc, "$")
        for check in self.checks:
            check(doc)
        return doc

    def write(self, path: PathLike, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Validate, create the parent directory, write; returns ``doc``."""
        self.validate(doc)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=self.indent, sort_keys=self.sort_keys)
            fh.write("\n")
        return doc

    def read(self, path: PathLike) -> Dict[str, Any]:
        """Load and validate a document from disk."""
        with open(path, encoding="utf-8") as fh:
            return self.validate(json.load(fh))
