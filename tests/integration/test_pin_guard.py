"""The CI key-pin guard (``scripts/pin_guard.py``).

A fingerprint may move only with ``CACHE_SCHEMA``; a key pin only with
``CACHE_SCHEMA`` or a changed set of config/spec fields (kernel pins
also with ``KERNEL_SCHEMA``). Each case copies the files the guard reads
into a head tree, edits them and compares it with this tree.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "pin_guard", REPO / "scripts" / "pin_guard.py"
)
pin_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_guard)

SOURCES = (
    pin_guard.CACHEKEY,
    pin_guard.PINS,
    *pin_guard.FIELDS.values(),
    *(path for _, path in pin_guard.OWN_SCHEMA.values()),
)

FINGERPRINT = ('"web_frontend": "a175af11', '"web_frontend": "b175af11')
CACHE_BUMP = ("\nCACHE_SCHEMA = 1\n", "\nCACHE_SCHEMA = 2\n")
KERNEL_PIN = ('"ibtb:16": "2125a9c3', '"ibtb:16": "3125a9c3')
KERNEL_BUMP = ("\nKERNEL_SCHEMA = 3\n", "\nKERNEL_SCHEMA = 4\n")
POINT_PIN = ('"web_frontend ideal": "57e1a32b', '"web_frontend ideal": "67e1a32b')
NEW_FIELD = (
    "    overflow_entries: int = 0\n",
    "    overflow_entries: int = 0\n    extra: int = 0\n",
)

#: Which file each edit applies to.
WHERE = {
    FINGERPRINT: pin_guard.CACHEKEY,
    CACHE_BUMP: pin_guard.CACHEKEY,
    KERNEL_PIN: pin_guard.PINS,
    KERNEL_BUMP: pin_guard.OWN_SCHEMA["KERNEL_KEYS"][1],
    POINT_PIN: pin_guard.PINS,
    NEW_FIELD: pin_guard.FIELDS["MachineConfig"],
}


def _head(tmp_path, *edits) -> Path:
    head = tmp_path / "head"
    for path in SOURCES:
        (head / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO / path, head / path)
    for old, new in edits:
        target = head / WHERE[(old, new)]
        text = target.read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{old!r} is not unique in {target}"
        target.write_text(text.replace(old, new), encoding="utf-8")
    return head


@pytest.mark.parametrize(
    "edits, passes",
    [
        ((), True),
        ((FINGERPRINT,), False),
        ((FINGERPRINT, CACHE_BUMP), True),
        ((POINT_PIN,), False),
        ((POINT_PIN, CACHE_BUMP), True),
        ((POINT_PIN, NEW_FIELD), True),
        ((FINGERPRINT, NEW_FIELD), False),
        ((KERNEL_PIN,), False),
        ((KERNEL_PIN, KERNEL_BUMP), True),
        ((KERNEL_PIN, KERNEL_BUMP, POINT_PIN), False),
    ],
    ids=[
        "unchanged",
        "fingerprint",
        "fingerprint+schema",
        "point-pin",
        "point-pin+schema",
        "point-pin+field",
        "fingerprint+field",
        "kernel-pin",
        "kernel-pin+kernel-schema",
        "kernel-pin+kernel-schema+point-pin",
    ],
)
def test_pins_move_only_with_their_version(tmp_path, capsys, edits, passes):
    head = _head(tmp_path, *edits)
    assert pin_guard.main([str(REPO), str(head)]) == (0 if passes else 1)
    out = capsys.readouterr()
    assert ("ok:" in out.out) == passes
    assert bool(out.err) != passes
