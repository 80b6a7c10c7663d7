"""Engine configuration.

Mirrors the reference's layered frozen-dataclass config surface
(reference: src/clonehunter/core/config.py:7-88) with an added
signature/LSH section replacing the embedder/index sections — the new
engine computes MinHash/SimHash signatures instead of transformer
embeddings (BASELINE.json north_star).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class WindowConfig:
    """Sliding line-window snippet parameters (reference config.py:7-11).

    The benchmark config uses window_lines=12 (reference README.md:135);
    the library default there is 40 — we default to the benchmark value
    because that is what the baseline numbers were produced with.
    """

    window_lines: int = 12
    stride_lines: int = 6
    min_nonempty: int = 4

    def validate(self) -> None:
        if self.window_lines <= 0:
            raise ValueError("window_lines must be > 0")
        if self.stride_lines <= 0:
            raise ValueError("stride_lines must be > 0")
        if self.min_nonempty < 0:
            raise ValueError("min_nonempty must be >= 0")


@dataclass(frozen=True)
class Thresholds:
    """Per-kind acceptance thresholds (reference config.py:21-28).

    In the reference these gate a composite embedding+lexical score;
    here they gate a composite Jaccard+lexical score with identical
    blending semantics (reference similarity/candidates.py:146-148):
    ``composite = (1-lexical_weight)*sim + lexical_weight*lexical``.
    """

    func: float = 0.92
    win: float = 0.90
    exp: float = 0.90
    min_window_hits: int = 1
    lexical_min_ratio: float = 0.5
    lexical_weight: float = 0.3

    def for_kind(self, kind: str) -> float:
        # reference similarity/candidates.py:167-172
        if kind == "FUNC":
            return self.func
        if kind == "WIN":
            return self.win
        return self.exp


@dataclass(frozen=True)
class SignatureConfig:
    """MinHash / SimHash / LSH parameters (new in this engine).

    num_perm = num_bands * band_rows. Collision probability for a pair
    with true Jaccard j is 1-(1-j^rows)^bands. The default 16 bands x
    8 rows targets the engine's verification gates (composite >= 0.90
    implies shingle Jaccard >= ~0.857 at full lexical agreement):
    P(detect) = 0.996 at j=0.857, 0.9996 at j=0.9 — above the
    recall>=0.99 target — while pairs at j=0.5 collide with only
    P=0.06, which keeps sub-threshold clone families from flooding the
    verifier with candidates that can never pass the gate (measured:
    32 bands x 4 rows produced 3M candidates for 23k accepted pairs at
    60k files). Pipelines that verify at LOWER similarity (document
    near-dup at 0.5-0.8, substring rescue) override the banding to
    wider/shallower configurations (e.g. 32x4 or 64x2).
    """

    shingle_k: int = 3  # tokens per shingle
    num_perm: int = 128
    num_bands: int = 16
    band_rows: int = 8
    seed: int = 0x5EED_C0DE
    # skew handling: buckets larger than this emit a star (hub-spoke)
    # pair pattern instead of all O(n^2) pairs; capped buckets are
    # counted in stage metrics so recall accounting stays honest.
    max_bucket_pairs_full: int = 256
    # what else a capped bucket emits besides the star:
    #   "star"   — star edges only (cluster connectivity, minimum cost)
    #   "salted" — plus salted re-band sub-bucket all-pairs (default;
    #              recovers ~1-(1-1/B)^salt_rounds of non-hub pairs,
    #              see stages/candidates.salted_bucket_pairs_int)
    #   "full"   — no cap at all (exact pair recall; O(n^2) hot buckets)
    skew_mode: str = "salted"
    salt_rounds: int = 6

    def validate(self) -> None:
        if self.num_bands * self.band_rows != self.num_perm:
            raise ValueError("num_bands * band_rows must equal num_perm")
        if self.shingle_k <= 0:
            raise ValueError("shingle_k must be > 0")
        if self.skew_mode not in ("star", "salted", "full"):
            raise ValueError("skew_mode must be star|salted|full")
        if self.salt_rounds < 0:
            raise ValueError("salt_rounds must be >= 0")


@dataclass(frozen=True)
class ExpansionConfig:
    """Call-graph expansion producing EXP snippets (reference
    config.py:14-18; snippets/expansion.py). Off by default, exactly
    like the reference (config.py:16)."""

    enabled: bool = False
    depth: int = 1
    max_chars: int = 4000

    def validate(self) -> None:
        if self.depth <= 0:
            raise ValueError("depth must be > 0")
        if self.max_chars <= 0:
            raise ValueError("max_chars must be > 0")


@dataclass(frozen=True)
class SubstringConfig:
    """Suffix-array longest-common-substring rescue channel (new in
    this engine; BASELINE.json north_star "suffix-array substring
    matching for harder clone patterns").

    Pairs that fail the composite Jaccard gate but whose exact shingle
    Jaccard is at least ``floor`` get a suffix-array LCS check over
    their ordered token-hash sequences; the pair is kept when
    ``LCS_tokens / min(len_a, len_b) >= min_ratio`` (a long verbatim
    token run embedded in otherwise-different code — the Type-3 case
    shingle Jaccard dilutes).
    """

    enabled: bool = False
    floor: float = 0.2
    min_ratio: float = 0.8

    def validate(self) -> None:
        if not (0.0 <= self.floor <= 1.0):
            raise ValueError("floor must be in [0, 1]")
        if not (0.0 < self.min_ratio <= 1.0):
            raise ValueError("min_ratio must be in (0, 1]")


@dataclass(frozen=True)
class ClusterConfig:
    """Connected-component clustering (reference config.py:69-88,
    similarity/clustering.py:8-55)."""

    enabled: bool = True
    # the reference ships cluster_findings=False / cluster_min_size=2
    # (config.py:69-88); we always annotate cluster ids but default the
    # min-size filter OFF (1) so findings match the reference's default
    # unfiltered output. Set min_size=2 to reproduce its opt-in filter
    # semantics (clustering.py:46-55: clusters need >= min_size FINDINGS).
    min_size: int = 1


@dataclass(frozen=True)
class ExecConfig:
    """Ray Data execution knobs, sized for a multi-node cluster but
    testable single-node."""

    # rows per task bundle for the fused files->signatures prefix. This
    # counts FILE rows (the operator's input), and one task = one
    # bundle: 2048 would cap a 20k-file corpus at 10 parallel tasks no
    # matter how many CPUs exist. 128 files/task keeps hundreds of
    # tasks in flight per million files while each task still amortizes
    # batch overheads over ~1k snippets.
    file_batch_size: int = 128
    shuffle_partitions: int = 0  # 0 = auto (scale with corpus size)
    # auto mode only: target BAND rows per band-shuffle partition. The
    # band exchange is (snippets x num_bands) rows; fixed partition
    # counts go superlinear once per-partition sort/emit work outgrows
    # the target (measured: 64 partitions fine at 90M band rows / 400k
    # files, superlinear at 180M / 800k). partitions =
    # clamp(band_rows / target, 64, 4096) — the cap bounds tiny-block
    # overhead on small corpora and scheduler pressure on huge ones.
    shuffle_target_rows: int = 1_500_000
    # sort-shuffle strategy of the scan's pair stage (its snippet-id
    # sort and band exchange): "auto" picks Ray's push-based sort
    # shuffle once the estimated band-row volume passes
    # push_shuffle_band_rows; "push"/"pull" force it.
    # Measured ladder (BASELINE.md round 5, findings identical at every
    # point): push is 3-6% SLOWER at 20k files (4.5M band rows), ~17%
    # faster at 100k (22M), ~8% faster at 400k (90M), ~1.4x at 800k
    # (181M), and 3.3x at 1.6M (362M) where the pull-based sort spills
    # 53 GB and goes I/O-bound. Set on the stage's own DataContext, so
    # the session's is left as it was.
    shuffle_strategy: str = "auto"
    # auto mode's cutover, between the measured push-slower 20k/4.5M
    # point and the push-faster 100k/22M point
    push_shuffle_band_rows: int = 10_000_000
    checkpoint_dir: str | None = None  # None = no checkpointing
    # Without a checkpoint dir the scan STREAMS verified pairs straight
    # into the findings shuffle (no barrier). Set True when the caller
    # will consume ScanResult.pairs separately (e.g. CLI --save-tables):
    # a streamed pairs view re-runs the whole band shuffle + verify on
    # every extra consumption.
    materialize_pairs: bool = False
    # per-stage driver log lines (label, rows, wall, rows/s) — the
    # reference's tqdm pipeline-bar analogue (progress.py). Off by
    # default so bench/test output stays parseable.
    log_progress: bool = False


@dataclass(frozen=True)
class EngineConfig:
    window: WindowConfig = field(default_factory=WindowConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)
    signature: SignatureConfig = field(default_factory=SignatureConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    substring: SubstringConfig = field(default_factory=SubstringConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    exec: ExecConfig = field(default_factory=ExecConfig)
    include_langs: tuple[str, ...] = ()  # empty = all languages

    def validate(self) -> None:
        self.window.validate()
        self.signature.validate()
        self.expansion.validate()
        self.substring.validate()
        if self.exec.shuffle_strategy not in ("auto", "push", "pull"):
            # fail fast: a typo'd value would otherwise silently run
            # pull-based and reintroduce the 3.3x spill-I/O slowdown
            raise ValueError("shuffle_strategy must be auto|push|pull")

    def fingerprint(self) -> str:
        """Stable hash of every semantics-affecting knob — keys the
        signature checkpoints (analogue of the reference embed-cache key
        recipe, io/fingerprints.py:10-14)."""
        d = asdict(self)
        d.pop("exec", None)  # execution knobs don't change results
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
