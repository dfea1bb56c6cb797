"""Rebuild an immutable hvnogo record with some of its fields changed."""


def replaced(record, **changes):
    """A new record of ``record``'s class, with ``changes`` in place of
    those fields and every other field as it was.  It is built through the
    class's constructor, so ``__post_init__`` checks it as it checks every
    record, and a name that is not a field raises ``TypeError``."""
    fields = {name: getattr(record, name) for name in type(record)._record_fields}
    return type(record)(**{**fields, **changes})
