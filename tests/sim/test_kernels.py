"""The REPRO_* switch registry and its README/CI parity checks."""

import pytest

from repro.sim import kernels


class TestRegistry:
    def test_every_kernel_pair_has_oracle_and_choices(self):
        for switch in kernels.kernel_switches():
            assert switch.oracle is not None
            assert switch.choices is not None
            assert switch.default in switch.choices
            assert switch.oracle in switch.choices
            assert switch.default != switch.oracle

    def test_cache_dir_is_config_not_kernel(self):
        switch = kernels.registered("REPRO_CACHE_DIR")
        assert not switch.is_kernel

    def test_unregistered_read_raises_with_fix(self):
        with pytest.raises(KeyError, match="REGISTRY"):
            kernels.registered("REPRO_BOGUS")
        with pytest.raises(KeyError, match="REGISTRY"):
            kernels.env_value("REPRO_BOGUS")

    def test_env_default_prefers_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINK_MODEL", raising=False)
        assert kernels.env_default("REPRO_LINK_MODEL") == "busy-until"
        monkeypatch.setenv("REPRO_LINK_MODEL", "two-event")
        assert kernels.env_default("REPRO_LINK_MODEL") == "two-event"

    @pytest.mark.parametrize(
        "switch",
        [s for s in kernels.REGISTRY.values() if s.choices is not None],
        ids=lambda s: s.env,
    )
    def test_env_default_rejects_values_outside_choices(
        self, switch, monkeypatch
    ):
        """Regression: a misspelt value was silently taken for one of
        the kernels (``REPRO_DATAPATH=fats`` ran the reference datapath,
        ``REPRO_INVARIANTS=yes`` left the watchdog off)."""
        typo = switch.choices[0] + "x"
        monkeypatch.setenv(switch.env, typo)
        with pytest.raises(ValueError) as excinfo:
            kernels.env_default(switch.env)
        message = str(excinfo.value)
        assert switch.env in message and repr(typo) in message
        assert all(choice in message for choice in switch.choices)

    def test_env_default_rejects_defaultless_switches(self):
        with pytest.raises(ValueError, match="no default"):
            kernels.env_default("REPRO_CACHE_DIR")

    def test_env_value_reads_raw(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert kernels.env_value("REPRO_CACHE_DIR") is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        assert kernels.env_value("REPRO_CACHE_DIR") == "/tmp/x"


GOOD_TABLE = """\
| variable | default | oracle | selects |
|---|---|---|---|
| `REPRO_PACKET_CORE` | `flat` | `object` | event records |
| `REPRO_LINK_MODEL` | `busy-until` | `two-event` | transmitter |
| `REPRO_TIMER_MODEL` | `soft-deadline` | `eager` | RTO re-arm |
| `REPRO_DATAPATH` | `fast` | `reference` | per-packet datapath |
"""


class TestReadmeParity:
    def test_matching_table_is_clean(self):
        assert kernels.readme_parity_problems(GOOD_TABLE) == []

    def test_missing_row_reported(self):
        text = "\n".join(
            line for line in GOOD_TABLE.splitlines() if "TIMER" not in line
        )
        problems = kernels.readme_parity_problems(text)
        assert any("REPRO_TIMER_MODEL" in p and "no row" in p for p in problems)

    def test_wrong_default_and_oracle_reported(self):
        text = GOOD_TABLE.replace("`flat`", "`object`", 1)
        problems = kernels.readme_parity_problems(text)
        assert any("default" in p for p in problems)

    def test_unregistered_row_reported(self):
        text = GOOD_TABLE + "| `REPRO_MYSTERY` | `a` | `b` | ? |\n"
        problems = kernels.readme_parity_problems(text)
        assert any("REPRO_MYSTERY" in p for p in problems)


class TestCiParity:
    def test_all_pins_present_is_clean(self):
        ci = (
            "REPRO_PACKET_CORE=object REPRO_LINK_MODEL=two-event "
            "REPRO_TIMER_MODEL=eager REPRO_DATAPATH=reference"
        )
        assert kernels.ci_parity_problems(ci) == []

    def test_missing_pin_reported(self):
        ci = "REPRO_PACKET_CORE=object"
        problems = kernels.ci_parity_problems(ci)
        assert len(problems) == 3
        assert any("REPRO_LINK_MODEL=two-event" in p for p in problems)
        assert any("REPRO_TIMER_MODEL=eager" in p for p in problems)
        assert any("REPRO_DATAPATH=reference" in p for p in problems)
