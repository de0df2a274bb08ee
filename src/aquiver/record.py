"""Plain value classes, built without the dataclasses module.

Importing dataclasses pulls in inspect, which would cost every command
line process several milliseconds.  ``record`` gives a class what
``dataclass`` gave it here, reading the fields, in order, from the class's
annotations and their defaults from its class attributes of the same name:

- an ``__init__`` taking the fields in that order, with those defaults,
  that calls ``__post_init__`` when the class defines one;
- ``__eq__`` on the tuple of fields, against an instance of the same class
  only;
- ``__hash__`` of the tuple of fields;
- ``__repr__`` as ``Name(field=value, ...)``;
- no assignment to or deletion of an attribute (``__post_init__`` may
  still set one with ``object.__setattr__``): every record is a value,
  as a frozen dataclass is, and no code changes one once it is built.

A method the class defines itself is kept.  As dataclass does, the
``__init__``, ``__eq__`` and ``__hash__`` are compiled from source naming
each field, since reading the fields by name at run time is about twice
as slow, and intervals are compared and hashed in inner loops.
"""


def record(cls):
    """Class decorator: ``@record``."""
    names = tuple(cls.__annotations__)
    own = vars(cls)
    defaults = tuple(own[n] for n in names if n in own)
    if any(n not in own for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with one")
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    scope = {}
    exec(f"def __init__(self, {', '.join(names)}):\n    " + "\n    ".join(body) + "\n"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n"
         "def __hash__(self):\n"
         f"    return hash(({mine}))\n",
         {"_set": object.__setattr__}, scope)
    scope["__init__"].__defaults__ = defaults or None

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = dict(scope, __repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        if name not in own:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls
