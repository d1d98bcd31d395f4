"""The spiketrim benchmark: one workload, one seed, one process.

    python3 perfbench/bench.py --workload stream-infer --seed 1 --seconds 10 --trace 0

Run it through perfbench/run.py, which pins BLAS to one thread in this
process's environment. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. BENCHMARK.json at the
checkout root lists the metric names and units; README.md in this directory
says what each one means.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spiketrim  # noqa: E402
from spiketrim import (backbone, cli, engine, head, neuron, selection,  # noqa: E402
                       svg, uncertainty)
from spiketrim import sweep as sweep_mod  # noqa: E402
from spiketrim.tensors import SpikeTensor  # noqa: E402

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = {"engine": engine, "head": head, "backbone": backbone, "neuron": neuron,
           "selection": selection, "uncertainty": uncertainty, "sweep": sweep_mod,
           "cli": cli}
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

STREAM_MIX = (ref.Plan("none", 1.0), ref.Plan("uncert-prune", 0.4),
              ref.Plan("random-prune", 0.4), ref.Plan("low-uncert-prune", 0.4),
              ref.Plan("uncert-merge", 0.6))
SWEEP_GRID = tuple(ref.Plan(s, r) for s in sweep_mod.DEFAULT_STRATEGIES
                   for r in sweep_mod.DEFAULT_RATIOS)


@dataclass(frozen=True)
class Workload:
    name: str
    p_background: float
    batch: int  # samples per request; for sweep-grid, test samples per cell
    mix: tuple  # plans cycled through by the requests, one plan each
    window: int  # requests whose exact counts are reported and compared


WORKLOADS = {w.name: w for w in (
    # Small batches of sparse inputs that never repeat: per-timestep Python
    # overhead dominates and no input-keyed cache can hit.
    Workload("stream-infer", 0.1, 16, STREAM_MIX, window=100),
    # Large batches where ~41% of tokens fire at every block: little for
    # active-token execution to skip, and pruning is lossy.
    Workload("dense-infer", 0.5, 256,
             STREAM_MIX + (ref.Plan("uncert-prune", 0.2), ref.Plan("random-prune", 0.2)),
             window=14),
    # The researcher's job: every cell reruns the same plan-independent prefix.
    Workload("sweep-grid", 0.1, 256, SWEEP_GRID, window=1),
)}

# sha256 of svg.emit_svg_lines(FIXED_ROWS) at the seed revision: the sweep's SVG
# is checked against the program's renderer on reference rows, and this pins
# the renderer itself.
FIXED_ROWS_SVG_SHA256 = "6c61694e946cab48e283cfc079653e1b86051e9210c5ebeb9fdd9167fba89a8d"


def fixed_rows() -> list:
    return [sweep_mod.ResultRow(strategy=p.strategy, keep_ratio=p.ratio, seed=1,
                                acc1=((i * 7) % 11) / 11, acc5=((i * 7) % 11) / 11,
                                block_sops=1000 + i, energy_mj=0.5 + i / 100)
            for i, p in enumerate(SWEEP_GRID)]


class Gate:
    """Counts operations and failures; a failure is a mismatch or an exception."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


# --- set-up ----------------------------------------------------------------

def program_spec(wl: Workload):
    return spiketrim.SyntheticSpec(p_background=wl.p_background)


def ref_spec(wl: Workload) -> ref.Spec:
    return ref.Spec(p_background=wl.p_background)


def model_digest(model, train, test) -> str:
    h = hashlib.sha256()
    arrays = [model.embed_w.data, model.head.w.data, model.head.b.data,
              train.frames.data, train.labels, test.frames.data, test.labels]
    for blocks in model.blocks:
        for blk in blocks:
            arrays += [blk.w_q.data, blk.w_k.data, blk.w_v.data, blk.w_proj.data]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ref_digest(p: ref.Params, train: ref.Batch, test: ref.Batch) -> str:
    h = hashlib.sha256()
    arrays = [p.embed, p.head_w, p.head_b, train.frames, train.labels.astype(np.int64),
              test.frames, test.labels.astype(np.int64)]
    for stage, b, _ in ref.BLOCKS:
        arrays += list(p.blocks[f"{stage}.block{b}"])
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def setup(wl: Workload, seed: int) -> tuple:
    """prepared_model SETUP_REPEATS times; returns (model, digests, seconds)."""
    times, digests, model = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model, train, test = sweep_mod.prepared_model(
            spiketrim.ModelConfig(seed=seed), program_spec(wl), seed)
        times.append(time.perf_counter() - t0)
        digests.append(model_digest(model, train, test))
    return model, digests, times


def check_setup(gate: Gate, digests: list, checker: "Checker") -> None:
    expected = ref_digest(*checker.prepared)
    for i, d in enumerate(digests):
        gate.check(d == expected, f"set-up {i}: model or data differ from the reference")


# --- inference workloads ---------------------------------------------------

@dataclass
class Request:
    index: int
    plan: ref.Plan
    batch: ref.Batch
    latency_ns: int = 0
    logits: Optional[np.ndarray] = None
    ledger: Optional[dict] = None


def request_batch(wl: Workload, seed: int, index: int) -> ref.Batch:
    return ref.synth_split(ref_spec(wl), seed, f"request/{index}", wl.batch)


def program_plan(plan: ref.Plan, seed: int):
    return sweep_mod.build_plan(sweep_mod.SweepConfig(seeds=(seed,)),
                                plan.strategy, plan.ratio, seed)


def run_request(model, req: Request, seed: int) -> None:
    frames = SpikeTensor(req.batch.frames)
    reduction = program_plan(req.plan, seed)
    t0 = time.perf_counter_ns()
    try:
        # looked up at call time so a tracer's wrapper is used when installed
        res = engine.forward_full(model, frames, reduction=reduction)
    except Exception as exc:  # an operation that raises counts as failed
        req.latency_ns = time.perf_counter_ns() - t0
        print(f"perfbench: request {req.index} raised {exc!r}", file=sys.stderr)
        return
    req.latency_ns = time.perf_counter_ns() - t0
    req.logits = res.logits.data
    req.ledger = dict(res.ledger.entries)


def warm_up(model, wl: Workload, seed: int) -> None:
    """One small request per plan, so lazy imports and caches fill untimed."""
    batch = ref.synth_split(ref_spec(wl), seed, "warmup", 16)
    for plan in wl.mix:
        engine.forward_full(model, SpikeTensor(batch.frames),
                            reduction=program_plan(plan, seed))


def infer_loop(model, wl: Workload, seed: int, seconds: float,
               tracer: Optional[Tracer] = None) -> list:
    """Closed loop, one caller: each request is sent when the last returns.
    Stops at a whole cycle of the mix once `seconds` passed and the window
    is complete."""
    reqs = []
    cycle = len(wl.mix)
    start = time.perf_counter()
    while not (len(reqs) >= wl.window and len(reqs) % cycle == 0
               and time.perf_counter() - start >= seconds):
        i = len(reqs)
        req = Request(i, wl.mix[i % cycle], request_batch(wl, seed, i))
        if tracer is not None:
            tracer.request = i
        run_request(model, req, seed)
        if tracer is not None:
            tracer.request = None
        reqs.append(req)
    return reqs


def check_request(gate: Gate, req: Request, expected: ref.Outcome) -> bool:
    ok = (req.logits is not None
          and req.logits.dtype == expected.logits.dtype
          and req.logits.tobytes() == expected.logits.tobytes()
          and req.ledger == expected.ledger)
    return gate.check(ok, f"request {req.index} ({req.plan.name}): logits or ledger "
                          "differ from the reference")


# --- sweep workload --------------------------------------------------------

@dataclass
class SweepRun:
    latency_ns: int
    code: Optional[int]
    csv: bytes = b""
    svg: bytes = b""


def sweep_args(seed: int, wl: Workload, test_samples: int) -> list:
    return ["sweep", "--seeds", str(seed), "--p-background", repr(wl.p_background),
            "--test-samples", str(test_samples)]


def run_sweep_cli(args: list) -> SweepRun:
    STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE_DIR) as out:
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.cli_main(args + ["--out", out])
        except Exception as exc:  # an operation that raises counts as failed
            print(f"perfbench: sweep raised {exc!r}", file=sys.stderr)
            return SweepRun(time.perf_counter_ns() - t0, None)
        dt = time.perf_counter_ns() - t0
        if code != 0:
            return SweepRun(dt, code)
        return SweepRun(dt, code, (Path(out) / "results.csv").read_bytes(),
                        (Path(out) / "results.svg").read_bytes())


def expected_svg(rows: list) -> bytes:
    return svg.emit_svg_lines([sweep_mod.ResultRow(**r.__dict__) for r in rows]).encode()


def check_renderer(gate: Gate) -> bool:
    digest = hashlib.sha256(svg.emit_svg_lines(fixed_rows()).encode()).hexdigest()
    return gate.check(digest == FIXED_ROWS_SVG_SHA256,
                      "SVG renderer output changed on the fixed rows")


def check_sweep(gate: Gate, run: SweepRun, rows: list, svg_bytes: bytes) -> bool:
    ok = (run.code == 0 and run.csv == ref.rows_csv(rows).encode()
          and run.svg == svg_bytes)
    return gate.check(ok, f"sweep (exit {run.code}): CSV or SVG bytes differ "
                          "from the reference")


def sweep_loop(seed: int, wl: Workload, seconds: float,
               tracer: Optional[Tracer] = None) -> list:
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.request = len(runs)
        runs.append(run_sweep_cli(sweep_args(seed, wl, wl.batch)))
        if tracer is not None:
            tracer.request = None
    return runs


def sweep_csv_values(csv: bytes) -> tuple[float, float]:
    """(mean acc1 over cells, summed energy_mj) read from the program's CSV."""
    lines = csv.decode().splitlines()[1:]
    cols = [line.split(",") for line in lines]
    return (statistics.fmean(float(c[3]) for c in cols),
            math.fsum(float(c[6]) for c in cols))


# --- exact counts from verified outcomes -----------------------------------

@dataclass
class Exact:
    """Counts over the window; identical on every repeat for one seed."""

    samples: int = 0
    correct: int = 0
    spike_accumulates: int = 0
    dense_macs: int = 0
    insert_ops: int = 0
    tokens: int = 0
    active_tokens: int = 0
    ssa_calls: int = 0
    useful_ssa_calls: int = 0
    reduced_tokens: int = 0
    kept_tokens: int = 0
    signature_present: int = 0
    signature_kept: int = 0
    digest: object = field(default_factory=hashlib.sha256)

    def add(self, logits: np.ndarray, ledger: dict, outcome: ref.Outcome,
            plan: ref.Plan, labels: np.ndarray, signature: dict) -> None:
        """Count one request: accuracy and ops from the program's `logits` and
        `ledger`, token activity and selection from the reference `outcome`."""
        x = outcome.insert_input
        t, b, n, _ = x.shape
        self.samples += b
        self.correct += int((np.argmax(logits, axis=-1) == labels).sum())
        for label, (sa, mac) in sorted(ledger.items()):
            self.spike_accumulates += sa
            self.dense_macs += mac
            if label.startswith(ref.INSERT_LABEL):
                self.insert_ops += sa + mac
            if label.endswith(".attn"):
                self.ssa_calls += 1
                self.useful_ssa_calls += int(sa > 0)
        active = x.any(axis=(0, 3))  # [B, N]
        self.tokens += b * n
        self.active_tokens += int(active.sum())
        if plan.strategy != "none":
            kept = outcome.kept
            self.reduced_tokens += b * n
            self.kept_tokens += kept.size
            for m in range(b):
                present = [i for i in signature[int(labels[m])] if active[m, i]]
                self.signature_present += len(present)
                self.signature_kept += len(set(present) & set(kept[m].tolist()))
        self.digest.update(logits.tobytes())
        self.digest.update(repr(sorted(ledger.items())).encode())

    def counts(self) -> dict:
        return {
            "acc1": self.correct / self.samples,
            "energy_mj_per_sample": (self.spike_accumulates + self.dense_macs)
            * ref.PJ_PER_OP * 1e-9 / self.samples,
            "efficiency.spike_accumulates_per_sample": self.spike_accumulates / self.samples,
            "efficiency.dense_macs_per_sample": self.dense_macs / self.samples,
            "efficiency.insert_block_ops_per_sample": self.insert_ops / self.samples,
            "backbone.active_token_share": self.active_tokens / self.tokens,
            "backbone.attn_useful_share": self.useful_ssa_calls / self.ssa_calls,
            "selection.kept_share": self.kept_tokens / max(self.reduced_tokens, 1),
            "selection.signature_recall":
                self.signature_kept / max(self.signature_present, 1),
            "outputs_sha256": self.digest.hexdigest(),
        }


# --- phases ----------------------------------------------------------------

@dataclass
class Phase:
    """One measured pass over a workload: timings plus the exact counts."""

    latencies_ns: list
    samples: int
    cells: int
    acc1: float
    energy_mj_per_sample: float
    exact: dict
    peak_rss_kib: int  # read after the timed loop, before any reference work

    def rate(self, n: int) -> float:
        return n / (sum(self.latencies_ns) / 1e9)


class Checker:
    """Reference outcomes for one workload and seed, computed once each, and
    only when first needed, so none of their work or memory precedes a
    timed loop."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self._outcomes: dict = {}
        self._sweeps: dict = {}

    @cached_property
    def prepared(self) -> tuple:
        return ref.prepare(ref_spec(self.wl), self.seed)

    @property
    def params(self) -> ref.Params:
        return self.prepared[0]

    def outcome(self, req: Request) -> ref.Outcome:
        if req.index not in self._outcomes:
            self._outcomes[req.index] = ref.forward(self.params, req.batch.frames, req.plan)
        return self._outcomes[req.index]

    def sweep(self, test_samples: int) -> tuple:
        """(rows, outcomes, test batch, expected SVG bytes) of a one-seed sweep."""
        if test_samples not in self._sweeps:
            test = self.prepared[2]
            if test_samples != len(test.labels):
                test = ref.synth_split(ref_spec(self.wl), self.seed, "test", test_samples)
            rows, outcomes = ref.sweep(self.params, test, list(SWEEP_GRID))
            self._sweeps[test_samples] = (rows, outcomes, test, expected_svg(rows))
        return self._sweeps[test_samples]


def infer_phase(model, wl: Workload, seed: int, seconds: float, gate: Gate,
                checker: Checker, tracer: Optional[Tracer] = None) -> Phase:
    reqs = infer_loop(model, wl, seed, seconds, tracer)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    exact = Exact()
    for req in reqs:
        expected = checker.outcome(req)
        check_request(gate, req, expected)
        if req.index < wl.window:
            failed = req.logits is None  # counted above; score the reference instead
            exact.add(expected.logits if failed else req.logits,
                      expected.ledger if failed else req.ledger,
                      expected, req.plan, req.batch.labels, checker.params.signature)
    counts = exact.counts()
    return Phase(latencies_ns=[r.latency_ns for r in reqs],
                 samples=wl.batch * len(reqs), cells=len(reqs),
                 acc1=counts.pop("acc1"),
                 energy_mj_per_sample=counts.pop("energy_mj_per_sample"),
                 exact=counts, peak_rss_kib=peak_rss)


def sweep_phase(wl: Workload, seed: int, seconds: float, gate: Gate,
                checker: Checker, tracer: Optional[Tracer] = None) -> Phase:
    runs = sweep_loop(seed, wl, seconds, tracer)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows, outcomes, test, svg_bytes = checker.sweep(wl.batch)
    check_renderer(gate)
    ok = [check_sweep(gate, run, rows, svg_bytes) for run in runs]
    exact = Exact()
    for row, outcome in zip(rows, outcomes):
        exact.add(outcome.logits, outcome.ledger, outcome,
                  ref.Plan(row.strategy, row.keep_ratio), test.labels,
                  checker.params.signature)
    counts = exact.counts()
    del counts["acc1"], counts["energy_mj_per_sample"]
    counts["outputs_sha256"] = hashlib.sha256(runs[0].csv + runs[0].svg).hexdigest()
    # acc1 and energy as the user reads them: from the program's CSV
    acc1, energy = sweep_csv_values(runs[0].csv) if ok[0] else (0.0, 0.0)
    cells = len(SWEEP_GRID)
    return Phase(latencies_ns=[r.latency_ns for r in runs],
                 samples=cells * wl.batch * len(runs), cells=cells * len(runs),
                 acc1=acc1, energy_mj_per_sample=energy / (cells * wl.batch),
                 exact=counts, peak_rss_kib=peak_rss)


def measure(model, wl: Workload, seed: int, seconds: float, gate: Gate,
            checker: Checker, tracer: Optional[Tracer] = None) -> Phase:
    if wl.name == "sweep-grid":
        return sweep_phase(wl, seed, seconds, gate, checker, tracer)
    return infer_phase(model, wl, seed, seconds, gate, checker, tracer)


# --- metrics ---------------------------------------------------------------

def percentile(values: list, q: int) -> float:
    """q-th percentile (q in 1..99) by the exclusive method, position q(n+1)/100.
    On whole cycles of a mix with at most 7 plans, p90 then sits inside the
    slowest 1/7 of the requests for every cycle count, never on its edge."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def end_to_end(phase: Phase, setup_times: list) -> dict:
    lat_ms = [ns / 1e6 for ns in phase.latencies_ns]
    return {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": phase.rate(phase.samples),
        "cells_per_s": phase.rate(phase.cells),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": percentile(lat_ms, 90),
        "acc1": phase.acc1,
        "energy_mj_per_sample": phase.energy_mj_per_sample,
        "peak_rss_mib": phase.peak_rss_kib / 1024,
    }


def per_layer(tracer: Tracer, sweep_tracer: Tracer, wl: Workload, traced: Phase,
              untraced: Phase) -> dict:
    window = set(range(wl.window))
    out = {}
    for label in ("stage1.block0", "stage2.block0", "stage3.block0", "stage3.block1"):
        out[f"backbone.ssa_forward.{label}.self_ms"] = tracer.median_ms(
            "backbone.ssa_forward", label, own=True)
    for name in ("neuron.lif_step", "neuron.lif_sequence", "backbone.patch_embed",
                 "selection.build_merge_assignment", "selection.apply_merge",
                 "selection.build_keep_mask", "backbone.token_logits",
                 "data.synth_dataset", "backbone.init_model", "head.ridge_solve"):
        out[f"{name}.ms"] = tracer.median_ms(name)
    for name in ("selection.merged_ssa", "selection.pruned_ssa_batched",
                 "uncertainty.score_tokens", "engine.forward_full",
                 "head.train_head", "sweep.prepared_model"):
        out[f"{name}.self_ms"] = tracer.median_ms(name, own=True)
    for kind in sweep_mod.DEFAULT_STRATEGIES:
        out[f"engine.forward_full.{kind}.ms"] = tracer.median_ms("engine.forward_full", kind)
    for name in ("neuron.lif_step", "backbone.ssa_forward"):
        out[f"{name}.calls_per_request"] = tracer.calls(name, window) / len(window)
    out["sweep.ssa_calls_per_cell"] = (sweep_tracer.calls("backbone.ssa_forward", {0})
                                       / len(SWEEP_GRID))
    out["sweep.evaluate_cell.self_ms"] = sweep_tracer.median_ms("sweep.evaluate_cell", own=True)
    out["svg.emit_svg_lines.ms"] = sweep_tracer.median_ms("svg.emit_svg_lines")
    for key, value in traced.exact.items():
        if key != "outputs_sha256":
            out[key] = value
    for rate, n_t, n_u in (("samples_per_s", traced.samples, untraced.samples),
                           ("cells_per_s", traced.cells, untraced.cells)):
        fast, slow = untraced.rate(n_u), traced.rate(n_t)
        out[f"trace.{rate}.overhead_pct"] = 100.0 * (fast - slow) / fast
    return out


# --- repeat check across runs ----------------------------------------------

def code_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(gate: Gate, wl: Workload, seed: int, exact: dict) -> None:
    """Compare exact counts with earlier runs of the same code and seed."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"exact-{code_digest()}-{wl.name}-{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for key in sorted(set(known) & set(exact)):
        gate.check(known[key] == exact[key],
                   f"{key} drifted from an earlier run: {known[key]!r} != {exact[key]!r}")
    known.update(exact)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


# --- machine ---------------------------------------------------------------

def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": threads, "machine": platform.machine()}


# --- main ------------------------------------------------------------------

def exact_of(phase: Phase) -> dict:
    return dict(phase.exact, acc1=phase.acc1,
                energy_mj_per_sample=phase.energy_mj_per_sample)


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[Gate, dict]:
    gate = Gate()
    model, digests, setup_times = setup(wl, seed)
    warm_up(model, wl, seed)
    checker = Checker(wl, seed)
    untraced = measure(model, wl, seed, seconds, gate, checker)
    check_setup(gate, digests, checker)
    exact = exact_of(untraced)
    if not trace:
        repeat_check(gate, wl, seed, exact)
        return gate, end_to_end(untraced, setup_times)

    tracer = Tracer()
    tracer.install(MODULES)
    try:
        model, t_digests, _ = setup(wl, seed)
        check_setup(gate, t_digests, checker)
        traced = measure(model, wl, seed, seconds, gate, checker, tracer)
    finally:
        tracer.close()
    sweep_tracer = tracer
    if wl.name != "sweep-grid":
        # These workloads never call the sweep layer; a 16-sample one-seed
        # sweep of their own spec measures it.
        sweep_tracer = Tracer()
        sweep_tracer.install(MODULES)
        try:
            sweep_tracer.request = 0
            probe = run_sweep_cli(sweep_args(seed, wl, 16))
            sweep_tracer.request = None
        finally:
            sweep_tracer.close()
        rows, _, _, svg_bytes = checker.sweep(16)
        check_renderer(gate)
        check_sweep(gate, probe, rows, svg_bytes)
    traced_exact = exact_of(traced)
    for key in sorted(exact):
        gate.check(exact[key] == traced_exact[key],
                   f"{key} differs between the untraced and traced runs")
    layers = per_layer(tracer, sweep_tracer, wl, traced, untraced)
    counts = {k: v for k, v in layers.items()
              if not k.endswith("ms") and not k.startswith("trace.")}
    repeat_check(gate, wl, seed, dict(exact, **counts))
    STATE_DIR.mkdir(exist_ok=True)
    (STATE_DIR / f"trace-{wl.name}-{seed}.json").write_text(
        json.dumps({"spans": tracer.dump(), "sweep_spans": sweep_tracer.dump()}))
    return gate, layers


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(spiketrim.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"perfbench: imported spiketrim from {src}, not from this checkout",
              file=sys.stderr)
        return 2
    declared = load_declared()["per_layer" if args.trace else "end_to_end"]
    gate, values = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(set(units) ^ set(values))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine(), sort_keys=True))
    for name in units:
        print(f"{name:48s} {values[name]!r:>24} {units[name]}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
