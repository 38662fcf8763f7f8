"""PEP 562 `__getattr__`s for names whose code lives in a sibling module,
so a stage compiles that code only if it runs it (see `cli`)."""

import importlib


def lazy_names(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """The `__getattr__` of the module whose globals are `namespace`: a name
    in `homes` (sibling -> names) imports its sibling on first use and is
    stored in `namespace`, where later lookups and rebinding find it."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        home = importlib.import_module(f"{namespace['__package__']}.{home_of[name]}")
        namespace[name] = getattr(home, name)
        return namespace[name]

    return __getattr__
