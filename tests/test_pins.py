"""The pinned verify reports of tests/pins.json.

A pin is the sha256 of the stdout of `python -m zetakit verify` for one
TYPE:N[:CHECKS] spec.  The pins up to rank 6 are checked here, in process;
CI runs every pin through the CLI under the cap scripts/bench.py counts.
"""

import hashlib
import json
import os

import pytest

from zetakit.typespec import type_spec
from zetakit.verify import run_suite

from test_bench import ROOT, bench

with open(os.path.join(ROOT, "tests", "pins.json")) as fh:
    PINS = json.load(fh)["pins"]
TIER1_RANK = 6  # the highest rank checked here


@pytest.mark.parametrize("spec", PINS)
def test_every_pin_names_checks_of_its_type_and_a_digest(spec):
    lt, n, checks = bench.parse_verify(spec)
    assert set(checks.split(",") if checks else ()) <= set(type_spec(lt).checks)
    type_spec(lt).check_rank(n)
    assert len(bytes.fromhex(PINS[spec]["sha256"])) == 32
    assert set(PINS[spec]) <= {"sha256", "peak_rss_mb_under"}


@pytest.mark.parametrize("spec", [s for s in PINS if bench.parse_verify(s)[1] <= TIER1_RANK])
def test_pinned_report(spec):
    lt, n, checks = bench.parse_verify(spec)
    text = run_suite(lt, n, checks and checks.split(",")).to_json() + "\n"  # as the CLI prints it
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[spec]["sha256"]


def test_the_pins_shared_with_perfbench_agree():
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)["commands"]
    shared = {}
    for spec in PINS:
        lt, n, checks = bench.parse_verify(spec)
        command = "verify --type %s --n %d" % (lt, n) + (" --check " + checks if checks else "")
        if command in expected:
            shared[spec] = expected[command]["sha256"]
    assert sorted(shared) == ["B:3", "B:4", "C:3", "C:4", "D:3", "D:4"]
    assert {spec: PINS[spec]["sha256"] for spec in shared} == shared
