"""Content-hash cache keys for the persistent sweep caches.

A cache entry must be addressable by *what it means*, not by object
identity: the key of a simulation result is a SHA-256 digest over a
canonical JSON rendering of everything the result depends on — the
:class:`~repro.core.config.MachineConfig`, the resolved
:class:`~repro.trace.cfg.ProgramSpec` of the workload, the run
parameters (length, warmup, seed) and a cache-schema version. Two
configs built independently with the same fields therefore share a key,
and changing any field (or the schema version) changes the key.

Configs and specs are frozen, so each instance is rendered once per
process (:class:`InstanceMemo`) and every key that holds it reuses the
text: a dict payload is rendered as ``{`` + its sorted ``"name":text``
pairs + ``}``, byte for byte what ``json.dumps`` makes of the whole.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, Tuple

#: Version of the cached payloads *and* of the simulation semantics they
#: capture. Bump this whenever the simulator timing model, the trace
#: synthesizer, or the stored JSON/npz layout changes: old entries
#: become unreachable (they live under a different ``v<N>/`` directory)
#: instead of being served stale.
CACHE_SCHEMA = 1

#: Fingerprints of the semantics ``CACHE_SCHEMA`` stands for, recomputed
#: by ``tests/core/test_fingerprint.py``: the sha256 of the columns of
#: ``get_trace(name, 4000, 7)`` for every workload, and of the canonical
#: JSON of each result (instructions, cycles, stats, structure) of a
#: mini-matrix — the ideal I-BTB 16 baseline plus ``ibtb:16 rbtb:3
#: bbtb:1:split mbbtb:2:allbr`` on two workloads, 3 000 instructions
#: after a 750-instruction warm-up. A change that moves any of them must
#: bump ``CACHE_SCHEMA`` and re-pin them.
TRACE_FINGERPRINTS = {
    "web_frontend": "a175af11042a185816c6716ac290018ec2ae73e4328c27be15f061f0b8f9f8dc",
    "db_oltp": "b9856258897999e7bb5fcabaa119bc8d9f7e3e65cf1556367131bb3af2da799f",
    "db_analytics": "9c1661595c4aec90e3dfbc76fda91f96440a770976dc9fc2997096aa8dd140d2",
    "kv_store": "c368f775345080acfd187194707420b0014afa66f4579e64396ddde741a0122e",
    "http_proxy": "295cb4ef0848b18373c77975d72a88e015881b77c215776b48468fc7a1170960",
    "msg_broker": "9718b9ada37923f11a726c40ef659f2809ee539479a0b3494f57d3943b4af4a6",
    "search_rank": "f270c7f97e4f04466bd6541fd9513283c3f9164ae06bc84a4e9d0682cdb9ab06",
    "rpc_marshal": "5c2a3dc9b1cb4821c2f9f34e8eb7c59dbcee014fd0d444a1384e9abb50ccc766",
    "gc_runtime": "1b93aa2b4f2c7cac0712c3e83045709a64b0404b2dcf404b40e4a36e3ad87ad7",
    "template_render": "ebface243179b0216f352a706237a86f28d1349bf60ce8646f5455a973e2800d",
    "compress_svc": "102a258f11fb05be95187853c3873c9a8f581ee27122de040470f2f2b6e8b035",
    "ad_server": "1b93bbee534a42017985b5727378c8d56926f5db5af1d3daef9f52d91f9e00fc",
}

RESULT_FINGERPRINTS = {
    "web_frontend ibtb:16@ideal": "40e6886f1d65935de5ada530f7773166710543a15ed78a390d0ab4c0a0f32be3",
    "web_frontend ibtb:16": "4e2fa856041acb25a80e37a624aab18e38377b666ac9abdf8347e52d025c7e76",
    "web_frontend rbtb:3": "ca65cb0ddd360a6f8766cc04140b8efc32ad997d0e0c3ab670806c9e031b7f58",
    "web_frontend bbtb:1:split": "f3d782a222025e20a0040b0fa82a04f418d77d9cc28a0e6323a532aa9d85c9b1",
    "web_frontend mbbtb:2:allbr": "bae4c7227046da30279099bd3b1833dc1a653237db27014982c990928e0173b0",
    "kv_store ibtb:16@ideal": "677575a6a57baf818316dd0e8dbd3e7ec988504aca62cb9f9746ca31c51c69da",
    "kv_store ibtb:16": "a01c61aa9973400c53870a33d8e6a2500797d5f31ee64f32c97798e9e6566509",
    "kv_store rbtb:3": "0ec6b91b92aed5ea1067ca12d8b4fcdde6d2543215fb0c035d54cf419bcf4397",
    "kv_store bbtb:1:split": "7e829f043b185a7b9083e103ca85368e56867b3c020a8f27cfbc76a483f655db",
    "kv_store mbbtb:2:allbr": "98aa22573eb42d77bc68b84bb27a0058ac09d59bf482a8637967c842fc05361b",
}


#: Exact types returned as they are (subclasses take the full walk).
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

#: Field names of each dataclass type, looked up once per type.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def _plain(obj, nested: bool = False):
    """Reduce *obj* to JSON-serializable plain data, deterministically.

    A dataclass carries its class name under ``__type__``, unless it is
    *nested* inside another dataclass: there it is a plain dict of its
    fields, the shape ``dataclasses.asdict`` gave the keys first made
    (``tests/core/test_cachekey.py`` keeps that canonicalizer as the
    reference and pins the keys).
    """
    if type(obj) in _SCALAR_TYPES:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        plain = {} if nested else {"__type__": type(obj).__name__}
        for name in _field_names(type(obj)):
            value = getattr(obj, name)
            plain[name] = (
                value if type(value) in _SCALAR_TYPES else _plain(value, True)
            )
        return plain
    if isinstance(obj, dict):
        return {str(k): _plain(v, nested) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, nested) for v in obj]
    if isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache keying")


def _immutable(obj) -> bool:
    """True for a frozen dataclass instance whose fields all hold
    exact-type scalars: nothing its rendering depends on can change."""
    cls = type(obj)
    params = getattr(cls, "__dataclass_params__", None)
    return (
        params is not None
        and params.frozen
        and all(
            type(getattr(obj, name)) in _SCALAR_TYPES
            for name in _field_names(cls)
        )
    )


class InstanceMemo:
    """Values derived from immutable instances, one entry per live one.

    Entries are keyed by ``id(instance)`` and hold a weak reference
    beside the value: a lookup is served only while that reference still
    points at the very instance asked about, and the reference's
    callback drops the entry when the instance dies, so the memo keeps
    no instance alive and does not outlive them. :meth:`put` remembers
    only :func:`_immutable` instances; anything else is derived afresh
    on every call.

    Never keyed by value: ``16 == 16.0`` and ``True == 1``, yet they
    render as ``16``/``16.0`` and ``true``/``1``, so equal instances may
    need different values. Threads need no lock: a lookup and a store
    are single dict operations, two threads storing one instance's value
    store equal values, and an id cannot be reused before the dying
    instance's callback has run.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[weakref.KeyedRef, object]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj):
        """The value remembered for *obj*, or ``None``."""
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def put(self, obj, value):
        """Remember *value* for *obj* if it is immutable; returns *value*."""
        if _immutable(obj):
            try:
                ref = weakref.KeyedRef(obj, self._forget, id(obj))
            except TypeError:  # a slotted class without __weakref__
                return value
            self._entries[id(obj)] = (ref, value)
        return value

    def _forget(self, ref: weakref.KeyedRef) -> None:
        entry = self._entries.get(ref.key)
        if entry is not None and entry[0] is ref:
            self._entries.pop(ref.key, None)


#: The canonical rendering of each immutable config and spec instance.
_RENDERINGS = InstanceMemo()


_INF = float("inf")


def _scalar_json(value) -> str:
    """``json.dumps(value)`` of an exact-type scalar, with no encoder."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _render(obj) -> str:
    """Canonical JSON text of one payload value."""
    if type(obj) in _SCALAR_TYPES:
        return _scalar_json(obj)
    text = _RENDERINGS.get(obj)
    if text is None:
        text = _RENDERINGS.put(
            obj, json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
        )
    return text


def canonical_json(obj) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace).

    Equal to ``json.dumps(_plain(obj), sort_keys=True,
    separators=(",", ":"))``; a dict is composed from its values'
    renderings, so a memoized config or spec inside it is not walked.
    """
    if type(obj) is not dict:
        return _render(obj)
    items = {str(k): v for k, v in obj.items()}
    return (
        "{"
        + ",".join(
            f"{encode_basestring_ascii(k)}:{_render(items[k])}" for k in sorted(items)
        )
        + "}"
    )


def digest(payload) -> str:
    """SHA-256 hex digest of the canonical rendering of *payload*."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def trace_key(workload: str, spec, length: int, seed: int) -> str:
    """Key of a synthesized trace: workload spec + synthesis parameters."""
    return digest(
        {
            "kind": "trace",
            "schema": CACHE_SCHEMA,
            "workload": workload,
            "spec": spec,
            "length": length,
            "seed": seed,
        }
    )


def sweep_key(point_keys) -> str:
    """Key identifying a whole sweep: the set of its point keys.

    Order-insensitive, so the same grid of (config, workload) points
    maps to the same checkpoint journal regardless of enumeration order
    — this is what lets ``repro-sim sweep --resume`` find the journal of
    the interrupted run.
    """
    return digest(
        {
            "kind": "sweep",
            "schema": CACHE_SCHEMA,
            "points": sorted(point_keys),
        }
    )


def result_key(
    config, workload: str, spec, length: int, warmup: int, seed: int
) -> str:
    """Key of a :class:`~repro.core.simulator.SimResult`."""
    return digest(
        {
            "kind": "result",
            "schema": CACHE_SCHEMA,
            "config": config,
            "workload": workload,
            "spec": spec,
            "length": length,
            "warmup": warmup,
            "seed": seed,
        }
    )
