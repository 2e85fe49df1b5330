"""Fixtures shared by the test modules."""
import os

import pytest


@pytest.fixture
def fail_write(monkeypatch):
    """``fail_write(suffix)``: from then on, any file write whose final
    rename lands on a path ending in ``suffix`` raises ``OSError``, as if
    the node crashed before the new contents became visible."""
    real_replace = os.replace

    def arm(suffix: str) -> None:
        def replace(src, dst, *args, **kwargs):
            if os.fspath(dst).endswith(suffix):
                raise OSError(f"injected write failure: {dst}")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)

    return arm


@pytest.fixture
def ssd_share():
    """``ssd_share(hier, run_id)``: how many of the run's data blocks on
    shared storage the SSD cache holds, read from the tiers' files —
    ``"all"``, ``"some"`` or ``"none"``."""

    def share(hier, run_id: str) -> str:
        shared, ssd = (
            {k for k in tier.list(f"runs/{run_id}/") if "/block." in k}
            for tier in (hier.shared, hier.ssd)
        )
        assert shared and ssd <= shared
        return "none" if not ssd else "all" if ssd == shared else "some"

    return share
