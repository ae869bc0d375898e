"""Fixture-snippet suite: one good/bad pair per lint rule code.

Each case lints an inline snippet through :func:`repro.analysis.lint_source`
with an explicit scope, so the suite exercises exactly what a rule flags --
and, just as deliberately, what it must leave alone.
"""

from __future__ import annotations

import pytest

from repro.analysis import DETERMINISM_SCOPES, LINT_RULES, lint_source

SIM_SCOPE = frozenset({"src", "repro", "sim"})
UNSCOPED = frozenset({"src", "repro", "experiments"})


def codes(source: str, scope=SIM_SCOPE):
    findings = lint_source(source, "src/repro/sim/snippet.py", scope_parts=scope)
    return [f.code for f in findings]


# --------------------------------------------------------------------- DET001


DET001_BAD = """
import time
import random
import numpy as np
from datetime import datetime


def tick():
    a = time.time()
    b = datetime.now()
    c = random.random()
    d = np.random.default_rng()
    e = np.random.rand(3)
    return a, b, c, d, e
"""

DET001_GOOD = """
import numpy as np
from repro.utils.rng import make_rng


def tick(now, seed):
    rng = np.random.default_rng(seed)
    other = make_rng(seed)
    draw = rng.random()          # Generator method, not the random module
    spawned = np.random.default_rng(rng.integers(2**31))
    return now, draw, other, spawned
"""


def test_det001_flags_wall_clock_and_unseeded_entropy():
    found = codes(DET001_BAD)
    assert found.count("DET001") == 5
    assert set(found) == {"DET001"}


def test_det001_clean_on_seeded_generators():
    assert codes(DET001_GOOD) == []


def test_det001_ignores_unimported_name_collisions():
    # A local object that merely shares a module's name must not match.
    source = "def f(random, time):\n    return random.random() + time.time()\n"
    assert codes(source) == []


def test_det001_tracks_from_imports_and_aliases():
    source = (
        "from time import time as now\n"
        "import numpy.random as npr\n"
        "def f():\n"
        "    return now(), npr.rand()\n"
    )
    assert codes(source) == ["DET001", "DET001"]


def test_det001_out_of_scope_directory_is_exempt():
    assert codes(DET001_BAD, scope=UNSCOPED) == []


# --------------------------------------------------------------------- DET002


DET002_BAD = """
def f(xs, ys):
    for x in set(xs):           # direct iteration
        print(x)
    a = list({1, 2, 3})         # materializer
    b = [y for y in frozenset(ys) | {4}]
    pending = set(xs) - set(ys)
    for p in pending:           # tainted local variable
        print(p)
    c = tuple(pending.union(ys))
    return a, b, c
"""

DET002_GOOD = """
def f(xs, ys):
    for x in sorted(set(xs)):   # sorted() normalizes the order
        print(x)
    if 3 in set(ys):            # membership is order-free
        pass
    dedup = {y * 2 for y in set(ys)}  # set-to-set stays order-free
    pending = set(xs)
    pending = sorted(pending)   # reassignment clears the taint
    for p in pending:
        print(p)
    return len(set(xs)) + sum(1 for _ in xs)
"""


def test_det002_flags_set_iteration():
    found = codes(DET002_BAD)
    assert found.count("DET002") == 5
    assert set(found) == {"DET002"}


def test_det002_clean_on_sorted_membership_and_set_results():
    assert codes(DET002_GOOD) == []


def test_det002_out_of_scope_directory_is_exempt():
    assert codes(DET002_BAD, scope=UNSCOPED) == []


# --------------------------------------------------------------------- DET003


DET003_BAD = """
def f(objs, a, b):
    ordered = sorted(objs, key=id)
    worst = max(objs, key=lambda o: (id(o), o))
    payload = hash(id(a))
    return ordered, worst, payload, id(a) < id(b)
"""

DET003_GOOD = """
def f(objs, a, b):
    by_name = sorted(objs, key=lambda o: o.name)
    cache = {}
    cache[id(a)] = 1            # identity as a plain dict key is fine
    same = id(a) == id(b)       # equality of ids is identity, deterministic
    return by_name, cache, same
"""


def test_det003_flags_identity_ordering_and_hashing():
    found = codes(DET003_BAD)
    assert found.count("DET003") == 4
    assert set(found) == {"DET003"}


def test_det003_clean_on_identity_dict_keys():
    assert codes(DET003_GOOD) == []


# --------------------------------------------------------------------- SPEC001


SPEC001_BAD = """
from dataclasses import dataclass


@dataclass
class BadSpec:
    name: str = "x"
    hidden_knob: int = 3

    def to_dict(self):
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data):
        return cls(name=data.get("name", "x"))
"""

SPEC001_GOOD = """
from dataclasses import dataclass, field, asdict
from typing import ClassVar


@dataclass(frozen=True)
class GoodSpec:
    KNOWN: ClassVar[int] = 1
    name: str = "x"
    knob: int = 3
    _cache: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "knob": self.knob}

    @classmethod
    def from_dict(cls, data):
        return cls(name=data.get("name", "x"), knob=data.get("knob", 3))


@dataclass(frozen=True)
class AsdictSpec:
    knob: int = 0

    def to_dict(self):
        return asdict(self)


@dataclass
class PlainRecord:
    value: int = 0
"""


def test_spec001_flags_unfrozen_and_dropped_fields():
    findings = lint_source(SPEC001_BAD, "specs.py", scope_parts=frozenset())
    messages = [f.message for f in findings]
    assert [f.code for f in findings] == ["SPEC001"] * 3
    assert any("not frozen=True" in m for m in messages)
    assert sum("hidden_knob" in m and "to_dict" in m for m in messages) == 1
    assert sum("hidden_knob" in m and "from_dict" in m for m in messages) == 1


def test_spec001_clean_on_frozen_covered_and_delegating_specs():
    assert lint_source(SPEC001_GOOD, "specs.py", scope_parts=frozenset()) == []


SPEC001_CODEC_BAD = """
from dataclasses import dataclass

from repro.config import Spec


@dataclass
class MutableSpec(Spec):
    knob: int = 3
"""

SPEC001_CODEC_GOOD = """
from dataclasses import dataclass

from repro import config


@dataclass(frozen=True)
class FrozenSpec(config.Spec):
    knob: int = 3
"""


def test_spec001_flags_unfrozen_spec_on_the_codec():
    findings = lint_source(SPEC001_CODEC_BAD, "specs.py", scope_parts=frozenset())
    assert [f.code for f in findings] == ["SPEC001"]
    assert "MutableSpec serializes through Spec but is not frozen=True" in findings[0].message


def test_spec001_clean_on_frozen_spec_without_its_own_to_dict():
    assert lint_source(SPEC001_CODEC_GOOD, "specs.py", scope_parts=frozenset()) == []


# --------------------------------------------------------------------- SPEC002


SPEC002_BAD = """
from repro.registry import Registry

ROUTERS = Registry("router")
AUTOSCALERS = Registry("autoscaler")
SYSTEMS = Registry("system")
TASK_KINDS = Registry("task kind")

ROUTERS.register("no-seed", lambda: object())


@AUTOSCALERS.register("needs-arg")
class NeedsArg:
    def __init__(self, target):
        self.target = target


@SYSTEMS.register("bad-system")
def build_bad(cluster):
    return cluster


def no_payload():
    return None


TASK_KINDS.register("no-payload", no_payload)
"""

SPEC002_GOOD = """
from dataclasses import dataclass
from repro.registry import Registry

ROUTERS = Registry("router")
AUTOSCALERS = Registry("autoscaler")
SYSTEMS = Registry("system")
TASK_KINDS = Registry("task kind")
DATASETS = Registry("dataset")

ROUTERS.register("seeded", lambda seed: object())


@AUTOSCALERS.register("all-defaults")
class AllDefaults:
    def __init__(self, interval=5.0, target=0.8):
        self.interval = interval


@AUTOSCALERS.register("dataclass-policy")
@dataclass
class DataclassPolicy:
    interval: float = 5.0


@SYSTEMS.register("good-system")
def build_good(cluster, model, dataset="sharegpt", limits=None, **kwargs):
    return cluster


TASK_KINDS.register("payload", lambda payload: payload)
DATASETS.register("not-callable", object())
"""


def test_spec002_flags_contract_drift():
    findings = lint_source(SPEC002_BAD, "plugins.py", scope_parts=frozenset())
    assert all(f.code == "SPEC002" for f in findings)
    names = [f.message for f in findings]
    assert any("'no-seed'" in m for m in names)
    assert any("'needs-arg'" in m and "target" in m for m in names)
    assert any("'bad-system'" in m for m in names)
    assert any("'no-payload'" in m for m in names)


def test_spec002_clean_on_conforming_plugins():
    assert lint_source(SPEC002_GOOD, "plugins.py", scope_parts=frozenset()) == []


# --------------------------------------------------------------------- FLT001


FLT001_BAD = """
def f(x, y, total, n):
    a = x == 0.5
    b = (total / n) != y
    c = float(x) == y
    return a, b, c
"""

FLT001_GOOD = """
import math


def f(x, y, count):
    a = count == 0              # integer sentinel
    b = x <= 0.5                # ordered comparison is tolerance-free anyway
    c = math.isclose(x, y)
    return a, b, c
"""


def test_flt001_flags_float_equality():
    found = codes(FLT001_BAD, scope=frozenset({"src", "repro", "perf"}))
    assert found.count("FLT001") == 3
    assert set(found) == {"FLT001"}


def test_flt001_clean_on_tolerant_comparisons():
    assert codes(FLT001_GOOD, scope=frozenset({"src", "repro", "perf"})) == []


def test_flt001_out_of_scope_directory_is_exempt():
    assert codes(FLT001_BAD, scope=frozenset({"src", "repro", "core"})) == []


# --------------------------------------------------------------------- meta


def test_every_registered_rule_code_has_a_bad_fixture():
    """Each shipped rule code is exercised in failing form above."""
    exercised = {
        "DET001": codes(DET001_BAD),
        "DET002": codes(DET002_BAD),
        "DET003": codes(DET003_BAD),
        "SPEC001": [f.code for f in lint_source(SPEC001_BAD, "s.py", scope_parts=frozenset())],
        "SPEC002": [f.code for f in lint_source(SPEC002_BAD, "p.py", scope_parts=frozenset())],
        "FLT001": codes(FLT001_BAD, scope=frozenset({"perf"})),
    }
    for code in LINT_RULES.available():
        assert code in exercised, f"no fixture for rule {code}"
        assert code in exercised[code], f"bad fixture for {code} does not trigger it"


def test_syntax_errors_surface_as_findings():
    findings = lint_source("def broken(:\n", "src/repro/sim/x.py")
    assert [f.code for f in findings] == ["SYNTAX"]


def test_determinism_scope_constant_matches_issue():
    assert DETERMINISM_SCOPES == {"sim", "core", "kvcache", "solvers"}


@pytest.mark.parametrize("code", ["DET001", "DET002", "DET003", "SPEC001", "SPEC002", "FLT001"])
def test_rule_registry_lists_each_code_with_help(code):
    entry = LINT_RULES.entry(code)
    assert entry.help
    assert entry.value.code == code
