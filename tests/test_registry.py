"""Tests for the generic plugin registry."""

import pytest

from repro.registry import Registry


@pytest.fixture
def reg():
    r = Registry("widget")
    r.register("alpha", lambda: "a", help="first widget", aliases=("a", "al"))
    r.register("beta", lambda: "b", help="second widget")
    return r


class TestRegistration:
    def test_direct_and_decorator_forms(self):
        r = Registry("thing")
        r.register("direct", object())

        @r.register("decorated", help="via decorator")
        def factory():
            return 42

        assert set(r.available()) == {"direct", "decorated"}
        assert r["decorated"] is factory
        assert factory() == 42  # decorator returns the original object

    def test_duplicate_name_rejected(self, reg):
        with pytest.raises(ValueError, match="already registered"):
            reg.register("alpha", lambda: None)

    def test_duplicate_alias_rejected(self, reg):
        with pytest.raises(ValueError, match="already registered"):
            reg.register("gamma", lambda: None, aliases=("a",))

    def test_overwrite_replaces(self, reg):
        reg.register("alpha", lambda: "a2", help="replacement", overwrite=True)
        assert reg["alpha"]() == "a2"
        assert reg.entry("alpha").help == "replacement"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            Registry("thing").register("", object())

    def test_unregister(self, reg):
        reg.unregister("beta")
        assert "beta" not in reg
        reg.unregister("beta")  # idempotent
        # Unregistering via an alias removes the canonical entry too.
        reg.unregister("al")
        assert "alpha" not in reg and "a" not in reg


class TestLookup:
    def test_resolve_follows_aliases(self, reg):
        assert reg.resolve("a") == "alpha"
        assert reg.resolve("alpha") == "alpha"

    def test_unknown_name_lists_available(self, reg):
        with pytest.raises(ValueError, match="unknown widget 'nope'; available: alpha, beta"):
            reg.resolve("nope")

    def test_require_and_create(self, reg):
        assert reg.require("beta")() == "b"
        assert reg.create("alpha") == "a"

    def test_create_rejects_non_callable(self):
        r = Registry("spec")
        r.register("static", object())
        with pytest.raises(TypeError, match="not callable"):
            r.create("static")

    def test_mapping_get_with_default(self, reg):
        assert reg.get("nope") is None
        assert reg.get("nope", 7) == 7
        assert reg.get("al")() == "a"


class TestMappingProtocol:
    def test_iteration_excludes_aliases(self, reg):
        assert sorted(reg) == ["alpha", "beta"]
        assert len(reg) == 2
        assert set(reg.keys()) == {"alpha", "beta"}

    def test_contains_includes_aliases(self, reg):
        assert "alpha" in reg and "a" in reg
        assert "nope" not in reg

    def test_getitem_raises_keyerror(self, reg):
        with pytest.raises(KeyError):
            reg["nope"]

    def test_dict_roundtrip(self, reg):
        as_dict = dict(reg)
        assert set(as_dict) == {"alpha", "beta"}


class TestIntrospection:
    def test_describe(self, reg):
        assert reg.describe() == {"alpha": "first widget", "beta": "second widget"}

    def test_help_text_mentions_aliases(self, reg):
        text = reg.help_text()
        assert "available widgets:" in text
        assert "first widget" in text
        assert "aliases: a, al" in text


class TestBuiltinRegistries:
    """The four converted extension points still expose mapping-compatible views."""

    def test_router_registry(self):
        from repro.core.cluster_system import ROUTERS, make_router

        assert "least-kv" in sorted(ROUTERS)
        router = make_router("round-robin", seed=3)
        assert router.name == "round-robin"
        with pytest.raises(ValueError, match="unknown router"):
            make_router("teleport")

    def test_elasticity_registries(self):
        from repro.core.elasticity import ADMISSIONS, AUTOSCALERS

        assert set(AUTOSCALERS.available()) == {"target-kv", "queue-depth"}
        assert set(ADMISSIONS.available()) == {"kv-threshold", "queue-threshold"}

    def test_dataset_registry_aliases(self):
        from repro.workloads.datasets import DATASETS, get_dataset_spec

        assert set(DATASETS) == {"sharegpt", "humaneval", "longbench"}
        assert get_dataset_spec("sg").name == "sharegpt"  # paper alias still works

    def test_system_registry_aliases(self):
        from repro.systems import SYSTEMS

        assert set(SYSTEMS.available()) == {"hetis", "hexgen", "splitwise", "static-tp"}
        assert SYSTEMS.resolve("static_tp") == "static-tp"
        assert SYSTEMS.resolve("static") == "static-tp"

    def test_third_party_system_reaches_api(self):
        """A registered plugin becomes a valid name across the whole API."""
        import repro
        from repro.config import SystemSpec
        from repro.systems import SYSTEMS

        @SYSTEMS.register("echo-system", help="test-only stub")
        def build_echo(cluster, model, dataset="sharegpt", limits=None, **kwargs):
            raise RuntimeError("never built in this test")

        try:
            assert "echo-system" in repro.available_systems()
            assert SystemSpec(name="echo-system").name == "echo-system"
        finally:
            SYSTEMS.unregister("echo-system")
        assert "echo-system" not in repro.available_systems()
