"""Plain records: classes that only hold named fields.

A record declares its fields as annotations, in order, and takes them
positionally or by keyword, each exactly once.  ``Record`` compares by
identity, ``ValueRecord`` by its fields, and ``FrozenRecord`` also hashes
on them and refuses assignment.  A record that validates its input or
fills a default writes its own ``__init__`` and passes every field on.
"""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # no field missing, unknown or given twice, and no extra argument
        if values.keys() != set(fields) or len(args) + len(kwargs) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(fields)}, each once"
            )
        vars(self).update((f, values[f]) for f in fields)


class ValueRecord(Record):
    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)


class FrozenRecord(ValueRecord):
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(tuple(vars(self).values()))
