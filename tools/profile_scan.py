"""Per-stage wall-clock profile of the flagship scan at bench scale.

Usage: python tools/profile_scan.py [n_files] [num_cpus]

Materializes each stage separately and prints a stage table plus the
tail of Ray Data's ds.stats() for the pair stage (the shuffle).
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, ".")


def main() -> None:
    n_files = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from clonehunter_ray.util import silence_empty_schema_warnings

    silence_empty_schema_warnings()

    from bench import corpus_path
    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.pipelines.scan import (
        build_findings,
        build_pairs,
        build_signatures,
    )

    files_path = corpus_path(n_files)
    cfg = EngineConfig()

    def read():
        # corpus-sized blocks (~400 files/block), same policy as bench.py
        return ray.data.read_parquet(
            files_path,
            override_num_blocks=max(32, ncpu * 4, n_files // 400),
        )

    def mib(ds) -> str:
        """Materialized object-store footprint of a stage's blocks —
        the number the broadcast-cutover thresholds are sized by."""
        try:
            return f"{ds.size_bytes() / (1 << 20):.0f} MiB in plasma"
        except Exception as exc:  # noqa: BLE001 - diagnostic only
            return f"(size unavailable: {exc})"

    t0 = time.monotonic()
    signatures = build_signatures(read(), cfg).materialize()
    t_sig = time.monotonic() - t0
    n_sig = signatures.count()
    mem_sig = mib(signatures)

    t0 = time.monotonic()
    pairs = build_pairs(signatures, cfg).materialize()
    t_pairs = time.monotonic() - t0
    n_pairs = pairs.count()
    mem_pairs = mib(pairs)

    t0 = time.monotonic()
    findings = build_findings(pairs, cfg).materialize()
    t_find = time.monotonic() - t0
    n_find = findings.count()
    mem_find = mib(findings)

    print(f"files={n_files} cpus={ncpu}")
    print(f"signatures: {t_sig:8.2f}s  rows={n_sig}  [{mem_sig}]")
    print(f"pairs:      {t_pairs:8.2f}s  rows={n_pairs}  [{mem_pairs}]")
    print(f"findings:   {t_find:8.2f}s  rows={n_find}  [{mem_find}]")
    total = t_sig + t_pairs + t_find
    print(f"total:      {total:8.2f}s  ({n_files / total:.1f} files/s)")
    print("--- pairs stage stats (tail) ---")
    print("\n".join(pairs.stats().splitlines()[-40:]))

    # full scan() end-to-end: includes the clustering + stats tail the
    # stage-by-stage profile above misses (driver union-find, counts)
    from clonehunter_ray.pipelines.scan import scan

    t0 = time.monotonic()
    res = scan(read(), cfg)
    t_e2e = time.monotonic() - t0
    print(f"scan() e2e: {t_e2e:8.2f}s  timing={res.stats['timing']}")
    print(f"plan: {res.stats['plan']}")
    ray.shutdown()


if __name__ == "__main__":
    main()
