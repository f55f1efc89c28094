"""Every module-level memo of the package keeps a bounded number of entries."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import types

import gridfloer
from gridfloer import chain


def _memos(module: types.ModuleType) -> dict[str, object]:
    """The module's own functools memos (``lru_cache`` or ``cache``), by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if callable(obj)
        and hasattr(obj, "cache_info")
        and getattr(obj, "__module__", None) == module.__name__
    }


def _unbounded(module: types.ModuleType) -> list[str]:
    """Memos of the module that take arguments and may keep more than
    ``chain._MEMO_SIZE`` entries.  One that takes none keeps one entry."""
    return [
        name
        for name, memo in _memos(module).items()
        if inspect.signature(memo).parameters
        and (memo.cache_info().maxsize is None or memo.cache_info().maxsize > chain._MEMO_SIZE)
    ]


def test_unbounded_memo_finder_flags_what_it_should():
    module = types.ModuleType("fake")
    exec(
        "import functools\n"
        "forever = functools.cache(lambda key: key)\n"
        "huge = functools.lru_cache(maxsize=10**9)(lambda key: key)\n"
        "bounded = functools.lru_cache(maxsize=16)(lambda key: key)\n"
        "once = functools.cache(lambda: 1)\n"
        "borrowed = functools.lru_cache(maxsize=None)(len)\n",
        vars(module),
    )
    # borrowed wraps a function of another module, so it is not fake's own.
    assert _unbounded(module) == ["forever", "huge"]


def test_every_module_memo_keeps_at_most_memo_size_entries():
    # __main__ is skipped: importing it would run the CLI.
    found = {}
    for info in pkgutil.iter_modules(gridfloer.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gridfloer.{info.name}")
        found.update({f"{info.name}.{name}": memo for name, memo in _memos(module).items()})
        assert _unbounded(module) == [], info.name
    assert {"domains._rectangle_shape", "domains._quarter", "chain._marking_counts"} <= set(found)
    # cli._parser takes no arguments, so it keeps one parser, whatever its maxsize.
    assert not inspect.signature(found["cli._parser"]).parameters
