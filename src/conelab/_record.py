"""Frozen records, the part of dataclass(frozen=True) that conelab uses.

Importing dataclasses loads inspect, ast, dis and tokenize, and every
decorated class generates and compiles its methods; a cold command line call
paid about 11 ms for the import and about 1 ms per class. Record builds a
class from its annotations in a few microseconds and imports nothing.
"""


class Record:
    """Base of the frozen records of conelab.

    A subclass lists its fields as annotations, in order; a class attribute
    of the same name is that field's default. An instance takes its fields
    positionally or by keyword and then runs the class's __post_init__, if
    it has one (which may set fields through object.__setattr__). Records
    are equal only to instances of the same class with equal fields, leaving
    out the names listed in _uncompared; they hash by the same fields unless
    the class sets __hash__ = None, and they refuse assignment. _fields is
    the tuple of field names in order. A record class derives from Record
    directly: fields are not inherited from one record class by another.
    """

    _fields = ()
    _defaults = {}
    _uncompared = ()
    _compared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        cls._compared = tuple(n for n in cls._fields if n not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                "%s takes %d field values, got %d"
                % (cls.__name__, len(fields), len(args))
            )
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError("%s is missing field %r" % (cls.__name__, name))
        if kwargs:
            raise TypeError(
                "%s got unexpected or repeated fields %s"
                % (cls.__name__, ", ".join(map(repr, kwargs)))
            )
        self.__dict__.update(values)
        post = getattr(self, "__post_init__", None)
        if post is not None:
            post()

    def _key(self):
        d = self.__dict__
        return tuple(d[name] for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (n, getattr(self, n)) for n in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
