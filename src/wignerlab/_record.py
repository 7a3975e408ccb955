"""``@record``: a frozen value class built from closures, with no generated source.

``__init__`` by position or keyword, with class-level defaults, then any
``__post_init__``; equality of same-class records over their fields, a hash
that agrees, a repr, and no assignment or deletion.  Instances keep
``__dict__``, so ``cached_property`` works.  A method the class defines is kept.
"""

from operator import attrgetter


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot assign or delete {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    n, positions, set_field = len(names), range(len(names)), object.__setattr__
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    values = attrgetter(*names)  # the field itself when there is only one
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            bound = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > n or bound.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}{names} cannot take {len(args)} "
                                f"positional arguments and keywords {sorted(kwargs)}")
            args = [bound[name] for name in names]
        for i in positions:  # not self.__dict__.update, which slows every later read
            set_field(self, names[i], args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return values(self) == values(other) if same else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": lambda self: hash(values(self)),
               "__setattr__": _frozen, "__delattr__": _frozen}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__match_args__ = names
    return cls
