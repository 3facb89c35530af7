"""Generate docs/api.md from the package's public interface.

Walks every ``repro`` subpackage, lists the names each ``__init__`` exports
(``__all__``), and records signatures plus first docstring lines. Run after
interface changes:

    python tools/gen_api_doc.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import re

PACKAGES = [
    "repro.tensor",
    "repro.nn",
    "repro.models",
    "repro.hamiltonians",
    "repro.samplers",
    "repro.optim",
    "repro.core",
    "repro.distributed",
    "repro.cluster",
    "repro.exact",
    "repro.manifolds",
    "repro.baselines",
    "repro.experiments",
    "repro.perf",
    "repro.analysis",
    "repro.obs",
    "repro.serve",
    "repro.utils",
]

OUT = pathlib.Path(__file__).parent.parent / "docs" / "api.md"


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.split("\n")[0].strip()


class _Shown:
    """A default value that renders as the given text in a signature."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def shown(value) -> str:
    """``repr(value)``, minus any memory address, so the page is the same on
    every run: a function by its qualified name, another object as
    ``<Type instance>``."""
    text = repr(value)
    if not re.search(r" at 0x[0-9a-fA-F]+", text):
        return text
    if inspect.isroutine(value):
        return value.__qualname__
    return f"<{type(value).__name__} instance>"


def signature_of(obj) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(…)"
    params = [
        p if p.default is p.empty else p.replace(default=_Shown(shown(p.default)))
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params))


def describe(name: str, obj) -> list[str]:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(f"{first_line(obj)}\n")
        methods = []
        for mname, member in inspect.getmembers(obj):
            if mname.startswith("_") or not callable(member):
                continue
            if inspect.isbuiltin(member):
                continue
            methods.append(f"- `{mname}{signature_of(member)}` — {first_line(member)}")
        if methods:
            lines.extend(methods)
            lines.append("")
    elif callable(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(f"{first_line(obj)}\n")
    else:
        lines.append(f"### `{name}`\n")
        lines.append(f"Constant/value: `{shown(obj)}`\n")
    return lines


def main() -> None:
    out = [
        "# API reference\n",
        "*Generated by `tools/gen_api_doc.py` — do not edit by hand.*\n",
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"\n## {pkg_name}\n")
        out.append(f"{first_line(pkg)}\n")
        exported = getattr(pkg, "__all__", [])
        for name in exported:
            obj = getattr(pkg, name)
            if inspect.ismodule(obj):
                out.append(f"### `{name}` (module)\n")
                out.append(f"{first_line(obj)}\n")
                continue
            out.extend(describe(name, obj))
    OUT.write_text("\n".join(out), encoding="utf-8")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
