"""Synthetic generator for the "real-life" trace of §4.6/4.7.

The paper evaluates caching with a proprietary database trace whose
published marginals are:

* more than 17,500 transactions of twelve transaction types;
* about 1 million page accesses (mean ≈ 57 per transaction) with large
  size variation — the largest transaction, an ad-hoc query, performs
  more than 11,000 accesses;
* 13 files, roughly 66,000 distinct pages referenced (database ≈ 4 GB);
* about 20% of transactions perform updates, but only 1.6% of all
  accesses are writes;
* strong locality (a 2000-page main-memory buffer reaches ≈ 84% hits).

The original trace is unavailable, so :func:`generate_trace` produces a
synthetic trace matching those marginals (the substitution is recorded
in DESIGN.md).  Locality is induced by a three-subpartition b/c profile
(hot/warm/cold) shared by all files plus per-type file affinities;
ad-hoc queries are long sequential scans, which also reproduces their
cache-hostile behaviour.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.rng import RandomStreams, cumulative_weights
from repro.workload.trace import Trace, TraceFile, TraceTransaction

__all__ = ["RealWorkloadProfile", "generate_trace"]


@dataclass
class RealWorkloadProfile:
    """Knobs of the synthetic trace, defaulting to §4.6's marginals."""

    num_transactions: int = 17_500
    target_accesses: int = 1_000_000
    num_types: int = 12
    num_files: int = 13
    total_pages: int = 66_000
    adhoc_accesses: int = 11_200
    adhoc_count: int = 2
    update_tx_fraction: float = 0.20
    target_write_fraction: float = 0.016
    #: Hot/warm/cold page fractions and their access probabilities.
    locality_sizes: Tuple[float, float, float] = (0.015, 0.06, 0.925)
    locality_probs: Tuple[float, float, float] = (0.78, 0.15, 0.07)
    #: Relative shares of the 11 non-ad-hoc types (most txs are small).
    type_shares: Tuple[float, ...] = (
        0.22, 0.18, 0.14, 0.12, 0.10, 0.08, 0.06, 0.04, 0.03, 0.02, 0.01,
    )
    #: Relative mean sizes of the non-ad-hoc types (scaled to hit
    #: ``target_accesses``).
    type_size_weights: Tuple[float, ...] = (
        4, 6, 8, 12, 16, 20, 30, 45, 70, 110, 160,
    )
    #: File size proportions (13 entries, normalized to total_pages).
    file_proportions: Tuple[float, ...] = (
        18, 12, 9, 7, 5, 4, 3, 2.5, 2, 1.5, 1, 0.7, 0.3,
    )

    def validate(self) -> None:
        if len(self.type_shares) != self.num_types - 1:
            raise ValueError("type_shares must cover the non-ad-hoc types")
        if len(self.type_size_weights) != self.num_types - 1:
            raise ValueError("type_size_weights must cover non-ad-hoc types")
        if len(self.file_proportions) != self.num_files:
            raise ValueError("file_proportions must have num_files entries")
        if abs(sum(self.locality_sizes) - 1.0) > 1e-9:
            raise ValueError("locality_sizes must sum to 1")
        if abs(sum(self.locality_probs) - 1.0) > 1e-9:
            raise ValueError("locality_probs must sum to 1")
        if not 0 <= self.update_tx_fraction <= 1:
            raise ValueError("update_tx_fraction must be in [0, 1]")


def _file_sizes(profile: RealWorkloadProfile) -> List[int]:
    total_weight = sum(profile.file_proportions)
    sizes = [
        max(64, int(round(profile.total_pages * w / total_weight)))
        for w in profile.file_proportions
    ]
    # Adjust the largest file so the footprint matches exactly.
    sizes[0] += profile.total_pages - sum(sizes)
    return sizes


def _subpartition_bounds(num_pages: int,
                         sizes: Tuple[float, float, float]) -> List[Tuple[int, int]]:
    bounds = []
    start = 0
    for i, frac in enumerate(sizes):
        if i == len(sizes) - 1:
            count = num_pages - start
        else:
            count = max(1, int(round(num_pages * frac)))
        bounds.append((start, start + count - 1))
        start += count
    return bounds


def _span(low: int, high: int) -> int:
    if high < low:
        raise ValueError(f"empty range [{low!r}, {high!r}]")
    return high - low + 1


def generate_trace(profile: Optional[RealWorkloadProfile] = None,
                   seed: int = 42) -> Trace:
    """Build a synthetic trace matching the §4.6 marginals."""
    if profile is None:
        profile = RealWorkloadProfile()
    profile.validate()
    streams = RandomStreams(seed)

    file_sizes = _file_sizes(profile)
    files = [
        TraceFile(f"file{idx:02d}", size)
        for idx, size in enumerate(file_sizes)
    ]
    bounds = [
        _subpartition_bounds(size, profile.locality_sizes)
        for size in file_sizes
    ]

    # Per-type file affinities: each non-ad-hoc type spreads its
    # accesses over 2-4 preferred files (inter-transaction-type
    # locality, §3.1).
    num_normal = profile.num_types - 1
    type_files: List[List[int]] = []
    type_file_weights: List[List[float]] = []
    for t in range(num_normal):
        count = streams.uniform_int(f"tg-affinity-count-{t}", 2, 4)
        chosen: List[int] = []
        while len(chosen) < count:
            f = streams.uniform_int(f"tg-affinity-{t}", 0,
                                    profile.num_files - 1)
            if f not in chosen:
                chosen.append(f)
        weights = [
            streams.uniform(f"tg-affweight-{t}", 0.5, 2.0)
            for _ in chosen
        ]
        type_files.append(chosen)
        type_file_weights.append(weights)

    # Scale type mean sizes so expected total accesses match the target.
    normal_txs = profile.num_transactions - profile.adhoc_count
    adhoc_total = profile.adhoc_count * profile.adhoc_accesses
    share_sum = sum(profile.type_shares)
    weighted_mean = sum(
        (s / share_sum) * w
        for s, w in zip(profile.type_shares, profile.type_size_weights)
    )
    scale = (profile.target_accesses - adhoc_total) / (
        normal_txs * weighted_mean
    )
    type_means = [w * scale for w in profile.type_size_weights]

    # Updates are carried by the *small* (interactive) transaction
    # types — long read queries holding X-locks on hot pages would
    # create a contention profile the paper's read-dominated trace does
    # not show.  The write probability inside update transactions is
    # derived from the published 1.6% overall write share.
    num_update_types = max(1, num_normal // 2)
    update_type_share = sum(profile.type_shares[:num_update_types]) / share_sum
    update_prob = min(1.0, profile.update_tx_fraction / update_type_share)
    expected_update_accesses = sum(
        (profile.type_shares[t] / share_sum) * type_means[t] * normal_txs
        for t in range(num_update_types)
    ) * update_prob
    writes_needed = profile.target_write_fraction * profile.target_accesses
    write_prob = min(1.0, writes_needed / max(1.0, expected_update_accesses))

    # The per-reference loop below is the generator's hot path, so each
    # named stream is bound once and the draws go to the underlying
    # ``random.Random`` directly.  Every draw is the one the
    # :class:`RandomStreams` helper would make: ``choice_weighted`` is
    # its bisect over sums precomputed once, ``uniform_int`` is
    # ``low + below(span)``, and ``bernoulli`` keeps its no-draw cases
    # for p <= 0 and p >= 1.
    type_cum = cumulative_weights(profile.type_shares)
    type_random = streams.stream("tg-type").random
    sub_cum = cumulative_weights(profile.locality_probs)
    sub_total = sub_cum[-1]
    sub_last = len(sub_cum) - 1
    sub_random = streams.stream("tg-sub").random
    file_cums = [cumulative_weights(w) for w in type_file_weights]
    file_randoms = [streams.stream(f"tg-file-{t}").random
                    for t in range(num_normal)]
    write_random = streams.stream("tg-write").random
    page_below = [streams.below(f"tg-page-{f}")
                  for f in range(profile.num_files)]
    wpage_below = [streams.below(f"tg-wpage-{f}")
                   for f in range(profile.num_files)]
    # (low, span) of each file's subpartitions; writes (inserts/updates
    # of individual records) land in the cold tail, not on the read-hot
    # pages: X-locks on the hottest pages would thrash every reader, a
    # behaviour absent from the paper's read-dominated trace.
    page_ranges = [
        [(low, _span(low, high)) for low, high in file_bounds]
        for file_bounds in bounds
    ]
    write_ranges = [ranges[-1] for ranges in page_ranges]

    def pick_write_page(file_idx: int) -> int:
        low, span = write_ranges[file_idx]
        return low + wpage_below[file_idx](span)

    transactions: List[TraceTransaction] = []

    # Place the ad-hoc queries at deterministic positions in the stream.
    adhoc_positions = set()
    if profile.adhoc_count > 0:
        step = profile.num_transactions // (profile.adhoc_count + 1)
        adhoc_positions = {
            step * (i + 1) for i in range(profile.adhoc_count)
        }

    for i in range(profile.num_transactions):
        if i in adhoc_positions:
            # Ad-hoc query: long sequential scan of the largest file.
            scan_file = 0
            size = profile.adhoc_accesses
            start = streams.uniform_int(
                "tg-adhoc-start", 0, max(0, file_sizes[scan_file] - 1)
            )
            refs = [
                (scan_file, (start + j) % file_sizes[scan_file], False)
                for j in range(size)
            ]
            transactions.append(TraceTransaction("adhoc-query", refs))
            continue
        type_idx = bisect_right(type_cum, type_random() * type_cum[-1],
                                0, len(type_cum) - 1)
        mean = type_means[type_idx]
        size = streams.geometric_like_size(f"tg-size-{type_idx}", mean)
        is_update = type_idx < num_update_types and streams.bernoulli(
            "tg-update", update_prob
        )
        may_write = is_update and write_prob > 0.0
        always_write = write_prob >= 1.0
        refs = []
        append = refs.append
        affinity = type_files[type_idx]
        file_cum = file_cums[type_idx]
        file_total = file_cum[-1]
        file_last = len(file_cum) - 1
        file_random = file_randoms[type_idx]
        wrote = False
        for _ in range(size):
            file_idx = affinity[
                bisect_right(file_cum, file_random() * file_total,
                             0, file_last)
            ]
            if may_write and (always_write or write_random() < write_prob):
                low, span = write_ranges[file_idx]
                append((file_idx, low + wpage_below[file_idx](span), True))
                wrote = True
            else:
                sub = bisect_right(sub_cum, sub_random() * sub_total,
                                   0, sub_last)
                low, span = page_ranges[file_idx][sub]
                append((file_idx, low + page_below[file_idx](span), False))
        if is_update and not wrote:
            # Guarantee update transactions write at least once.
            file_idx, page, _ = refs[-1]
            refs[-1] = (file_idx, pick_write_page(file_idx), True)
        transactions.append(TraceTransaction(f"type{type_idx:02d}", refs))

    return Trace.from_transactions(files, transactions)
