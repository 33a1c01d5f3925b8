"""Event schemas (event type definitions).

The definition of an event takes two arguments (paper Section 3.1): the
event type — a string label — and a list of fields with their data
types.  In addition to the user-defined fields Scrub annotates every
event with two *system fields*: a unique request identifier and a
timestamp.  The metadata is bounded and is kept to the minimum necessary
to support equi-joins (on the request id) and windowing (on the
timestamp).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from .fields import FieldDef, FieldType

__all__ = [
    "EventSchema",
    "SYSTEM_FIELDS",
    "REQUEST_ID",
    "TIMESTAMP",
    "HOST",
    "schema_from_payload",
    "schema_to_payload",
]

#: Name of the system field holding the unique request identifier.
REQUEST_ID = "request_id"
#: Name of the system field holding the event timestamp (seconds).
TIMESTAMP = "timestamp"
#: Name of the system field holding the emitting host (filled by the agent;
#: exposed so central results can attribute rows, but queries should prefer
#: the @[...] target construct for host restriction — see paper Section 3.2).
HOST = "host"

SYSTEM_FIELDS: dict[str, FieldType] = {
    REQUEST_ID: FieldType.LONG,
    TIMESTAMP: FieldType.DOUBLE,
    HOST: FieldType.STRING,
}


class EventSchema:
    """An event type: a label plus an ordered list of typed fields.

    Field specs may be given as :class:`FieldDef` objects, ``(name, type)``
    pairs, or a mapping ``{name: type}`` where ``type`` is a
    :class:`FieldType` or a type-name string (``"long"``, ``"list<string>"``,
    ...).
    """

    __slots__ = ("name", "fields", "_order", "doc")

    def __init__(
        self,
        name: str,
        fields: Iterable[FieldDef | tuple[str, Any]] | Mapping[str, Any],
        doc: str = "",
    ) -> None:
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(f"invalid event type name: {name!r}")
        self.name = name
        self.doc = doc
        defs: list[FieldDef] = []
        if isinstance(fields, Mapping):
            items: Iterable[Any] = fields.items()
        else:
            items = fields
        for item in items:
            if isinstance(item, FieldDef):
                fdef = item
            else:
                fname, ftype = item
                if isinstance(ftype, str):
                    ftype = FieldType.from_string(ftype)
                fdef = FieldDef(fname, ftype)
            defs.append(fdef)
        names = [f.name for f in defs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate field(s) in event {name!r}: {dupes}")
        clashes = sorted(set(names) & set(SYSTEM_FIELDS))
        if clashes:
            raise ValueError(
                f"event {name!r} redefines system field(s): {clashes}"
            )
        self.fields: dict[str, FieldDef] = {f.name: f for f in defs}
        self._order: tuple[str, ...] = tuple(names)

    # -- introspection ----------------------------------------------------

    @property
    def field_names(self) -> tuple[str, ...]:
        """User-defined field names in declaration order."""
        return self._order

    @property
    def all_field_names(self) -> tuple[str, ...]:
        """User fields plus system fields."""
        return self._order + tuple(SYSTEM_FIELDS)

    def has_field(self, name: str) -> bool:
        """True for user fields, system fields, and dotted object paths."""
        if name in self.fields or name in SYSTEM_FIELDS:
            return True
        if "." in name:
            root = name.split(".", 1)[0]
            fdef = self.fields.get(root)
            return fdef is not None and fdef.ftype in (
                FieldType.OBJECT,
                FieldType.LIST_OBJECT,
            )
        return False

    def field_type(self, name: str) -> FieldType:
        if name in SYSTEM_FIELDS:
            return SYSTEM_FIELDS[name]
        if "." in name:
            root = name.split(".", 1)[0]
            fdef = self.fields.get(root)
            if fdef is not None and fdef.ftype is FieldType.OBJECT:
                # Nested object members are dynamically typed.
                return FieldType.OBJECT
        try:
            return self.fields[name].ftype
        except KeyError:
            raise KeyError(f"event {self.name!r} has no field {name!r}") from None

    def __iter__(self) -> Iterator[FieldDef]:
        return iter(self.fields.values())

    def __len__(self) -> int:
        return len(self.fields)

    def __repr__(self) -> str:
        fieldspec = ", ".join(f"{f.name}:{f.ftype.value}" for f in self)
        return f"EventSchema({self.name!r}, [{fieldspec}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSchema):
            return NotImplemented
        return self.name == other.name and [
            (f.name, f.ftype) for f in self
        ] == [(f.name, f.ftype) for f in other]

    def __hash__(self) -> int:
        return hash((self.name, tuple((f.name, f.ftype) for f in self)))

    # -- validation --------------------------------------------------------

    def coerce_payload(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and normalise a payload dict against this schema.

        Unknown keys raise; missing fields are left absent (treated as
        NULL by the query layer).
        """
        out: dict[str, Any] = {}
        for key, value in payload.items():
            fdef = self.fields.get(key)
            if fdef is None:
                raise KeyError(f"event {self.name!r} has no field {key!r}")
            out[key] = fdef.coerce(value)
        return out


def schema_to_payload(schema: EventSchema) -> dict[str, Any]:
    """The codec- and JSON-friendly form a schema takes in an agent's
    hello and in the query journal."""
    return {
        "name": schema.name,
        "fields": [[f.name, f.ftype.value] for f in schema],
        "doc": schema.doc,
    }


def schema_from_payload(payload: Mapping[str, Any]) -> EventSchema:
    return EventSchema(
        payload["name"],
        [(name, ftype) for name, ftype in payload["fields"]],
        doc=payload.get("doc", ""),
    )
