"""The form of oscillax's records.

Immutable records are NamedTuples: a frozen dataclass costs about 1.3 ms of
every fresh process to build, a NamedTuple about a tenth of that.  Only the
records that are mutated stay dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import oscillax


def test_the_only_dataclasses_are_the_mutable_records():
    # oscillax loads its modules lazily, so import each one here
    modules = [importlib.import_module(f"oscillax.{m.name}")
               for m in pkgutil.iter_modules(oscillax.__path__) if m.name != "__main__"]
    assert len(modules) == 9
    found = {f"{m.__name__}.{name}" for m in modules for name, obj in vars(m).items()
             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
             and obj.__module__ == m.__name__}
    assert found == {"oscillax.cli_report.RunConfig"}  # main sets out and formats
