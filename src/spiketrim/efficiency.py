"""Synaptic-operation and dense-MAC accounting with the energy model.

Counting conventions:
  * A linear layer fed binary spikes costs nnz(input) * fan_out
    spike-accumulates (one accumulate per active input per output).
  * Spike attention: the query-key product costs nnz(Q) * n_tokens
    spike-accumulates; the integer-valued attention matrix applied to V costs
    a structural n_tokens^2 * d dense multiply-accumulates (A is not binary,
    so the work does not shrink with spike sparsity).
  * Every operation, of either kind, is charged the same energy per op
    (default 0.9 pJ).

Counters are Python ints checked against the signed 64-bit bound; overflow
raises instead of wrapping.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CountOverflowError

_I64_MAX = 2**63 - 1


def _checked(value: int, context: str) -> int:
    if value < 0 or value > _I64_MAX:
        raise CountOverflowError(f"{context}: count {value} outside 64-bit range")
    return value


def count_linear(nnz_in: int, fan_out: int) -> int:
    """Spike-accumulates for a spike-driven linear layer."""
    return _checked(int(nnz_in) * int(fan_out), "count_linear")


def count_attention(nnz_q: int, n_tokens: int, d: int) -> tuple[int, int]:
    """(spike_accumulates, dense_macs) for one attention product pair.

    Q K^T: each active query element accumulates across all n_tokens keys.
    A V: structural n_tokens^2 * d MACs.
    """
    sa = _checked(int(nnz_q) * int(n_tokens), "count_attention/qk")
    macs = _checked(int(n_tokens) * int(n_tokens) * int(d), "count_attention/av")
    return sa, macs


@dataclass
class SopLedger:
    """Per-layer (spike_accumulate, dense_mac) counters; add accumulates
    entrywise."""

    entries: dict[str, tuple[int, int]] = field(default_factory=dict)

    def add(self, label: str, spike_accumulates: int = 0, dense_macs: int = 0) -> None:
        sa0, mac0 = self.entries.get(label, (0, 0))
        sa = _checked(sa0 + int(spike_accumulates), f"ledger[{label}].sa")
        mac = _checked(mac0 + int(dense_macs), f"ledger[{label}].mac")
        self.entries[label] = (sa, mac)

    def totals(self, prefix: str = "") -> tuple[int, int]:
        """(spike_accumulates, dense_macs) summed over the labels that equal
        prefix or extend it past a '.'; "" sums every label. The boundary
        keeps 'stage1.block1' from counting 'stage1.block10.*'."""
        sa = mac = 0
        for label, (s, m) in self.entries.items():
            if not prefix or label == prefix or label.startswith(prefix + "."):
                sa = _checked(sa + s, "ledger totals")
                mac = _checked(mac + m, "ledger totals")
        return sa, mac

    def total_ops(self, prefix: str = "") -> int:
        sa, mac = self.totals(prefix)
        return _checked(sa + mac, "ledger total_ops")


@dataclass(frozen=True)
class EnergyModel:
    pj_per_op: float = 0.9

    def __post_init__(self):
        if self.pj_per_op <= 0:
            raise ValueError("pj_per_op must be positive")


def energy_mj(ledger: SopLedger, model: EnergyModel = EnergyModel()) -> float:
    """Total energy in millijoule: (accumulates + MACs) * pJ/op * 1e-9."""
    return ledger.total_ops() * model.pj_per_op * 1e-9


def reduction_percent(base: int, reduced: int) -> float:
    """100 * (base - reduced) / base."""
    if base <= 0:
        raise ValueError("base count must be positive")
    return 100.0 * (base - reduced) / base


SOP_REPORT_HEADER = "keep_ratio,block_sops,block_macs,block_total,reduction_pct,energy_mj"


def sop_report_csv(rows: list[dict]) -> str:
    """Table-style block report; rows carry the header's keys.

    Reals are printed with fixed 6 decimals, LF line endings; byte-stable for
    equal inputs.
    """
    lines = [SOP_REPORT_HEADER]
    for r in rows:
        lines.append(
            f"{r['keep_ratio']:.6f},{r['block_sops']},{r['block_macs']},"
            f"{r['block_total']},{r['reduction_pct']:.6f},{r['energy_mj']:.6f}"
        )
    return "\n".join(lines) + "\n"
