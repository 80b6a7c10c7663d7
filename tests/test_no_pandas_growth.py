"""The pandas ratchet: ``batch_format="pandas"`` sites under
``clonehunter_ray/`` may only go down. Arrow-native kernels replace them
one family at a time; lower ``MAX_PANDAS_SITES`` when a change removes
more."""

from __future__ import annotations

import pathlib

import clonehunter_ray

MAX_PANDAS_SITES = 12


def test_pandas_batch_sites_only_go_down():
    root = pathlib.Path(clonehunter_ray.__file__).parent
    sites = [
        f"{path.relative_to(root)}:{n}"
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if 'batch_format="pandas"' in line
    ]
    assert len(sites) <= MAX_PANDAS_SITES, sites
