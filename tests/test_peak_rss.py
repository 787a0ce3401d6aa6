"""`ru_maxrss` normalization: KiB on Linux, bytes on macOS/BSD."""

import resource
import sys
import types

import pytest

import repro.perf.bench as bench
import repro.sim.runner as runner


@pytest.mark.parametrize("module", [runner, bench], ids=["runner", "bench"])
class TestPeakRss:
    def test_positive_on_this_platform(self, module):
        assert module._peak_rss_kb() > 0

    def _with_fake(self, module, monkeypatch, platform, ru_maxrss):
        # bench re-exports the runner's helper: patch where it is defined.
        home = sys.modules[module._peak_rss_kb.__module__]
        fake = types.SimpleNamespace(ru_maxrss=ru_maxrss)
        monkeypatch.setattr(home.resource, "getrusage", lambda who: fake)
        monkeypatch.setattr(home.sys, "platform", platform)
        return module._peak_rss_kb()

    def test_linux_passthrough(self, module, monkeypatch):
        assert self._with_fake(module, monkeypatch, "linux", 4096) == 4096

    def test_darwin_bytes_to_kib(self, module, monkeypatch):
        assert self._with_fake(module, monkeypatch, "darwin", 4096 * 1024) == 4096

    def test_bsd_bytes_to_kib(self, module, monkeypatch):
        assert (
            self._with_fake(module, monkeypatch, "freebsd14", 2048 * 1024)
            == 2048
        )

    def test_linux_value_is_plausible_kib(self, module):
        """On Linux a Python process is tens of MiB: the raw value read
        as KiB lands in a sane band, read as bytes it would not."""
        if not sys.platform.startswith("linux"):
            pytest.skip("Linux-only plausibility check")
        kib = module._peak_rss_kb()
        assert 1024 < kib < 64 * 1024 * 1024  # between 1 MiB and 64 GiB
