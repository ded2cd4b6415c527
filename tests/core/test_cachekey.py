"""Cache keys, pinned: every cache tier is addressed by these bytes.

Disk results, traces, plans and kernels, the service journal and the
dist coordinator's remote store all find their entries by the sha256 of
:func:`repro.core.exec.cachekey.canonical_json`. A change to that
rendering, or to what a key hashes, leaves every stored entry
unreachable even though nothing it holds went stale. So this file pins:

* literal keys of the benchmark's sweep grid (G20 — the ideal I-BTB 16
  baseline plus the CLI's four default configs, on four workloads, at
  10 000 instructions after 2 500 of warm-up, seed 3), of every
  workload's trace, of one plan per workload, of the five kernels and of
  the whole sweep;
* the canonical text itself, against :func:`reference_plain` — the
  ``dataclasses.asdict``-based canonicalizer the keys were first made
  with, kept here as the specification — on drawn configs, program
  specs, corpus specs and nested payloads;
* the per-instance rendering memo: equal instances that render apart,
  mutable fields, short-lived instances and threads all get the
  reference's text.

The keys were computed before the canonicalizer stopped calling
``asdict``; a speed-up must leave them unchanged. Re-pin only with a
``CACHE_SCHEMA`` bump or a changed set of ``MachineConfig`` or
``ProgramSpec`` fields; kernel keys also move with ``KERNEL_SCHEMA`` and
plan keys with ``COLUMNAR_SCHEMA``. CI's ``cache-compat`` job checks
this rule, and that fingerprints move only with ``CACHE_SCHEMA``, across
each commit (``scripts/pin_guard.py``).
"""

import dataclasses
import enum
import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import parse_config
from repro.core.config import IDEAL_IBTB16, MachineConfig
from repro.core.exec import SweepPoint, plan_key, point_key, trace_key
from repro.core.exec import cachekey
from repro.core.exec.cachekey import CACHE_SCHEMA, canonical_json, digest, sweep_key
from repro.core.passes import kernel as kernel_passes
from repro.core.passes.kernel import batch_geometry, kernel_key
from repro.trace.cfg import ProgramSpec
from repro.trace.workloads import WORKLOAD_SPECS

MOVED = (
    "cache keys moved: existing disk, journal and remote entries become "
    "unreachable; re-pin only with a CACHE_SCHEMA bump or a new "
    "config/spec field"
)

#: The benchmark grid G20 (bench/harness.py).
CONFIG_SPECS = ("ibtb:16", "rbtb:3", "bbtb:1:split", "mbbtb:2:allbr")
TRACES = ("web_frontend", "db_oltp", "kv_store", "template_render")
LENGTH, WARMUP, SEED = 10_000, 2_500, 3

POINT_KEYS = {
    "web_frontend ideal": "57e1a32bca2d3490998b8b9b67be8d37f7de4e53b9a8a9977a3216aa24f03c25",
    "db_oltp ideal": "281dd238b9a79ce83e583e280f923897d92315cad9a00277cf856958fc9bd02c",
    "kv_store ideal": "5e85f7ac045a16532789fe070add430e08cef8d82fc29643da81e1c12b386c01",
    "template_render ideal": "96988d8d168c1e63e006e1948d7ededd80c605a16385d8987924d61adda041d5",
    "web_frontend ibtb:16": "1e594b7ff478b9af1b0e3305b57e96e65bf6fca690b844e2be5b7b3b8b0bc9a8",
    "db_oltp ibtb:16": "b69f25543b182f70f7f88c77b82e2b400379db8e8dde0834ba876c9f24a0225a",
    "kv_store ibtb:16": "f9a2bee4476ca8e35224abc4c128bbd84720a7da022eae48c7e896dce2888007",
    "template_render ibtb:16": "62c3d318faa0c1ac57dbeaf61a6e918b303861264f448fbd0a450da12bfca56b",
    "web_frontend rbtb:3": "9e3b643ef5d6d700fcd715b16d834b3a05a4d3c997dfe6fe80ab0086b45d275e",
    "db_oltp rbtb:3": "f33d20b55c5cffdadcca4908441daa4aaab985e809b08077199a4991b5a077fe",
    "kv_store rbtb:3": "0d2fc8f1a41fd2a9b899e04b7a3b4a6a047114192221f9bfe97ce94296c0d845",
    "template_render rbtb:3": "8d15d46d7c27d77de7e6c3aa9e110fbf3cd4a880c31e0c0a36b3ce634182f4e2",
    "web_frontend bbtb:1:split": "de98f744265505487d42b6ba342878dfaefdecbfeac9a0a816d58c5e1b3d76ad",
    "db_oltp bbtb:1:split": "2a77253c8e275c0d58f55ba9263c12cb99a68b80fb4fd99be151813680cf4d70",
    "kv_store bbtb:1:split": "3a1ad66c367352b506176485bd6e331dabdc0a75a6bac3fb09771122b80748bf",
    "template_render bbtb:1:split": "dcdc270b95e89a171c7a752200c700fd9c9c14636786e6d089260e8224d9cbb4",
    "web_frontend mbbtb:2:allbr": "1d3735e3719c2d26d2c75b7865f179c25f391b1ee160a394bd9e3aec24222467",
    "db_oltp mbbtb:2:allbr": "715f3ae73df598bc7c324ee1e59465bb1bb586de60f884fdd038931a1fb175df",
    "kv_store mbbtb:2:allbr": "bf378b64f5fbdfc8580dd25a6e391e5297d06ead0f3b647082583cf8ac68e94a",
    "template_render mbbtb:2:allbr": "7b16ee79a51fe198ee6cc3767367936fb246982a6341138b167bfaaad13381d9",
}

#: ``trace_key`` of every workload at (LENGTH, SEED).
TRACE_KEYS = {
    "web_frontend": "bba470cfc919c00e6a25adce3bb83034e17791129bdc5903ca30741cc0027cd8",
    "db_oltp": "0ef9cf202fe8a75c21ff358a223f3ea84fd2cd4e3ddaf407f37c355b38b9bb88",
    "db_analytics": "a66fd605fb73ee08a32beff6fbc814345f5ad943528fef5fe0fd137e81a524e1",
    "kv_store": "724975dc58f702b1d2328438be2ca166a528428af5bcc347827a3c0f478ae9d0",
    "http_proxy": "709465bbd9faba28db3d900349d3a784c7a0fcc8d76e21c8ce221ffb9434e4e2",
    "msg_broker": "f896874f6e8377bf879d79a59509d14f2269564d323ca75be7e8041e30b4f2ad",
    "search_rank": "e6baa83765c4eb470999de4fb981d1400ac595b063dc45f916925726409c2ff5",
    "rpc_marshal": "f79315ed27cf0a9ca55a67f9a9a7d1fd622fcc78cdb12e176d51bc50b3a16693",
    "gc_runtime": "8bd0bd183af27671211b0207b4ec4bb3311474e60d64af80a832388d3b1321e2",
    "template_render": "d3339d66e9c2caad0a6048d2a2e5bf04d55f5ae3a0e5f10d771d97a6b2c27e65",
    "compress_svc": "9f61a7fced88c0f88930599bcd3e8450dcbc7743590246832410b238e8d9e0f0",
    "ad_server": "6d8efa9754cf819fe23bacdeee8fe7347c98928fbcad988003a8c9b174e84d0b",
}

#: ``plan_key`` of the ``ibtb:16`` point of each G20 workload.
PLAN_KEYS = {
    "web_frontend": "9abbdd2f7435c5fd3bf43e0a954ac9c8bec523d3403b8e04d89e8c407af21c10",
    "db_oltp": "cd05e636b6be4df00261295e1839b12754cad175d6f00170b866d1f3c55c0b81",
    "kv_store": "316e342901c76e516b62dcc76b097f48c5e84cb6c6f8006519c406b6ec27106f",
    "template_render": "762daa2df236d01bf611a83c95aaead5c0ebf35932eaa07db802a1a3a0bd8d52",
}

KERNEL_KEYS = {
    "ideal": "3cd782fcc0d895144f17afbade93cba24231f49e3c2c7764a72b001b6efca734",
    "ibtb:16": "2125a9c33c9eb1d8d2264f7311af61453609b2683ebe794723749945d8c2be4d",
    "rbtb:3": "69518bf41f9e27366b3b8b03f73b06ad5e64a78ab7a1ee8667ab80573919f6ba",
    "bbtb:1:split": "824c853d5b3740438561bf928466b74db87731918347f451569cd3ea0490c576",
    "mbbtb:2:allbr": "5c3e90d963656aea71a0ae77ab584a92bb23d1267361703884e89025288a05b7",
}

#: ``sweep_key`` of the 20 point keys.
SWEEP_KEY = "ec8376ea6c3a2872f492ce6772a2df9166049e2d2277d50f7e55952042c3b14d"


def _configs():
    """``(name, config)`` of the five G20 configs, baseline first."""
    return [("ideal", IDEAL_IBTB16)] + [
        (spec, parse_config(spec)) for spec in CONFIG_SPECS
    ]


def _g20():
    return {
        f"{workload} {name}": SweepPoint(config, workload, LENGTH, WARMUP, SEED)
        for name, config in _configs()
        for workload in TRACES
    }


def _assert_pinned(kind, got, pinned):
    moved = sorted(name for name in pinned if got.get(name) != pinned[name])
    assert got.keys() == pinned.keys(), f"{kind} keys: {MOVED}"
    assert not moved, f"{kind} key of {', '.join(moved)}: {MOVED}"


def test_schema_is_the_one_the_keys_were_pinned_under():
    assert CACHE_SCHEMA == 1, MOVED


def test_point_keys_are_pinned():
    got = {name: point_key(point) for name, point in _g20().items()}
    _assert_pinned("point", got, POINT_KEYS)


def test_trace_keys_are_pinned():
    got = {
        name: trace_key(name, spec, LENGTH, SEED)
        for name, spec in WORKLOAD_SPECS.items()
    }
    _assert_pinned("trace", got, TRACE_KEYS)


def test_plan_keys_are_pinned():
    config = parse_config("ibtb:16")
    geometry = batch_geometry(config)
    got = {
        workload: plan_key(
            SweepPoint(config, workload, LENGTH, WARMUP, SEED), geometry
        )
        for workload in TRACES
    }
    _assert_pinned("plan", got, PLAN_KEYS)


def test_kernel_keys_are_pinned():
    got = {name: kernel_key(config) for name, config in _configs()}
    _assert_pinned("kernel", got, KERNEL_KEYS)


def test_sweep_key_is_pinned():
    got = sweep_key(point_key(point) for point in _g20().values())
    assert got == SWEEP_KEY, f"sweep key of G20: {MOVED}"


# -- the reference canonicalizer ----------------------------------------------


def reference_plain(obj):
    """The canonicalizer the pinned keys were made with.

    ``dataclasses.asdict`` turns a dataclass into a dict and every
    dataclass inside it into a plain dict too, so only the outermost one
    (or one reached through dicts and lists alone) carries ``__type__``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.asdict(obj)
        return {
            "__type__": type(obj).__name__,
            **{k: reference_plain(v) for k, v in fields.items()},
        }
    if isinstance(obj, dict):
        return {str(k): reference_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_plain(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache keying")


def reference_json(obj) -> str:
    return json.dumps(reference_plain(obj), sort_keys=True, separators=(",", ":"))


def _same_text(payload):
    assert canonical_json(payload) == reference_json(payload)


def _field_values(default):
    """Values of the type of a dataclass field's *default*."""
    if default is None:
        return st.none() | st.integers()
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    return st.text(max_size=12)


def _every_field(cls):
    return st.fixed_dictionaries(
        {f.name: _field_values(f.default) for f in dataclasses.fields(cls)}
    )


@st.composite
def program_specs(draw):
    """A workload's spec with some of its fields redrawn."""
    base = WORKLOAD_SPECS[draw(st.sampled_from(sorted(WORKLOAD_SPECS)))]
    drawn = draw(_every_field(ProgramSpec))
    chosen = draw(st.sets(st.sampled_from(sorted(drawn))))
    return dataclasses.replace(base, **{name: drawn[name] for name in chosen})


def corpus_specs():
    """The dict a ``corpus:`` workload stands in for its spec with."""
    return st.fixed_dictionaries(
        {
            "kind": st.just("corpus"),
            "content": st.text("0123456789abcdef", min_size=64, max_size=64),
            "slice": st.text(max_size=24),
        }
    )


def _result_payload(config, spec):
    return {
        "kind": "result",
        "schema": CACHE_SCHEMA,
        "config": config,
        "workload": "w",
        "spec": spec,
        "length": LENGTH,
        "warmup": WARMUP,
        "seed": SEED,
    }


@settings(max_examples=60, deadline=None)
@given(_every_field(MachineConfig).map(lambda fields: MachineConfig(**fields)))
def test_every_drawn_config_renders_like_the_reference(config):
    _same_text(config)
    _same_text(_result_payload(config, WORKLOAD_SPECS["web_frontend"]))


@settings(max_examples=60, deadline=None)
@given(program_specs())
def test_drawn_program_specs_render_like_the_reference(spec):
    _same_text(spec)
    _same_text(_result_payload(IDEAL_IBTB16, spec))


@settings(max_examples=40, deadline=None)
@given(corpus_specs())
def test_corpus_specs_render_like_the_reference(spec):
    _same_text(_result_payload(parse_config("rbtb:3"), spec))


@dataclasses.dataclass
class Leaf:
    left: object = 0
    right: object = None


@dataclasses.dataclass
class Holder:
    leaf: Leaf
    leaves: tuple
    table: dict


def _floats():
    return (
        st.floats()
        | st.sampled_from([-0.0, 0.0, 1e300, -1e300])
        | st.floats().map(np.float64)
    )


SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=8) | _floats()
DICT_KEYS = st.integers(-3, 3) | st.text(max_size=3)


def _nest(children):
    leaves = st.builds(Leaf, children, children)
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(DICT_KEYS, children, max_size=4)
        | leaves
        | st.builds(
            Holder,
            leaves,
            st.lists(leaves, max_size=3).map(tuple),
            st.dictionaries(DICT_KEYS, children | leaves, max_size=3),
        )
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(SCALARS, _nest, max_leaves=24))
def test_nested_payloads_render_like_the_reference(payload):
    _same_text(payload)
    _same_text({"payload": payload, "items": [payload, (payload,)]})


def test_only_the_outermost_dataclass_is_typed():
    holder = Holder(Leaf(1, 2.5), (Leaf(), Leaf("x")), {3: Leaf(), "k": [Leaf()]})
    text = canonical_json([holder, {"h": holder}])
    assert text == reference_json([holder, {"h": holder}])
    assert text.count('"__type__"') == 2
    assert '"leaf":{"left":1,"right":2.5}' in text


class Colour(enum.Enum):
    RED = 1


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", np.int64(7), Colour.RED],
    ids=["set", "bytes", "numpy.int64", "enum"],
)
def test_values_outside_json_raise_typeerror_like_the_reference(value):
    for payload in (value, {"v": value}, [value], Leaf(value), Holder(Leaf(), (), {1: value})):
        with pytest.raises(TypeError):
            reference_plain(payload)
        with pytest.raises(TypeError):
            canonical_json(payload)


# -- the rendering memo -------------------------------------------------------

#: Instances that compare equal but render differently (``16 == 16.0``,
#: ``True == 1``): a memo keyed by value would give both one text.
EQUAL_BUT_RENDERED_APART = {
    "width 16 / 16.0": (MachineConfig, {"width": 16}, {"width": 16.0}),
    "ideal_btb True / 1": (MachineConfig, {"ideal_btb": True}, {"ideal_btb": 1}),
    "p_load 0 / 0.0": (ProgramSpec, {"p_load": 0}, {"p_load": 0.0}),
}


@pytest.mark.parametrize("first", [0, 1], ids=["in order", "reversed"])
@pytest.mark.parametrize(
    "cls, left, right",
    EQUAL_BUT_RENDERED_APART.values(),
    ids=EQUAL_BUT_RENDERED_APART.keys(),
)
def test_equal_instances_each_render_their_own_values(cls, left, right, first):
    pair = [cls(**left), cls(**right)]
    assert pair[0] == pair[1]
    assert reference_json(pair[0]) != reference_json(pair[1])
    for obj in (pair[first], pair[1 - first]) * 2:
        _same_text(obj)
        _same_text({"held": obj, "seed": SEED})


def test_a_replaced_instance_renders_its_own_values():
    config = parse_config("rbtb:3")
    spec = WORKLOAD_SPECS["web_frontend"]
    _same_text(_result_payload(config, spec))
    for derived in (dataclasses.replace(config, width=8), config.with_(label="x")):
        _same_text(derived)
        assert canonical_json(derived) != canonical_json(config)
    _same_text(dataclasses.replace(spec, p_load=0.5))


def test_an_entry_is_served_only_to_its_own_instance():
    rendered, newcomer = MachineConfig(width=16), MachineConfig(width=16.0)
    canonical_json(rendered)
    # What a new instance at a dead one's address would find, were the
    # dead one's entry still there.
    entries = cachekey._RENDERINGS._entries
    entries[id(newcomer)] = entries[id(rendered)]
    _same_text(newcomer)


@dataclasses.dataclass(frozen=True)
class FrozenHolder:
    name: str
    items: list


def test_a_frozen_dataclass_holding_a_list_follows_its_list():
    held = FrozenHolder("h", [1, 2])
    before = digest({"held": held})
    held.items.append(3)
    _same_text(held)
    _same_text({"held": held})
    assert digest({"held": held}) != before


def test_short_lived_instances_leave_no_memo_entries():
    memos = (cachekey._RENDERINGS, kernel_passes._KEYS)
    before = [len(memo) for memo in memos]
    for width in range(10_000):
        config = MachineConfig(width=width)
        canonical_json(config)
        kernel_key(config)
    del config
    assert all(len(memo) <= n for memo, n in zip(memos, before))


def _reference_key(payload) -> str:
    return hashlib.sha256(reference_json(payload).encode("utf-8")).hexdigest()


def test_threads_keying_short_lived_instances_get_the_reference_keys():
    """Threads create, key and drop configs and specs whose addresses the
    others reuse; every key must be the reference's."""
    base = WORKLOAD_SPECS["kv_store"]
    failures = []

    def work(worker: int) -> None:
        try:
            for i in range(120):
                number = (worker + i) % 5 + 1
                config = MachineConfig(width=number if i % 2 else float(number))
                spec = dataclasses.replace(base, p_load=0 if worker % 2 else 0.0)
                payload = _result_payload(config, spec)
                for _ in range(2):
                    if digest(payload) != _reference_key(payload):
                        failures.append((worker, i, config.width, spec.p_load))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    threads = [
        threading.Thread(target=work, args=(n,), daemon=True)
        for n in range(2 * (os.cpu_count() or 1) + 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
