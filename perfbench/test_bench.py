"""Tests of the benchmark's correctness gate.

    OPENBLAS_NUM_THREADS=1 python3 -m pytest -q perfbench

They show that the reference agrees with the program on every strategy the
workloads use, and that a corrupted output or a raised exception is counted
as a failed operation.
"""
import dataclasses

import numpy as np
import pytest

import bench
import reference as ref

WL = bench.WORKLOADS["dense-infer"]  # its mix covers every strategy and ratio used
SEED = 5


@pytest.fixture(scope="module")
def checker():
    return bench.Checker(WL, SEED)


@pytest.fixture(scope="module")
def model():
    return bench.sweep_mod.prepared_model(
        bench.spiketrim.ModelConfig(seed=SEED), bench.program_spec(WL), SEED)[0]


def served(model, plan):
    index = WL.mix.index(plan)  # the checker caches reference outcomes by index
    batch = ref.synth_split(bench.ref_spec(WL), SEED, f"test/{index}", 16)
    req = bench.Request(index, plan, batch)
    bench.run_request(model, req, SEED)
    return req


def test_setup_matches_reference(checker):
    gate = bench.Gate()
    _, digests, _ = bench.setup(WL, SEED)
    bench.check_setup(gate, digests, checker)
    assert (gate.attempted, gate.failed) == (bench.SETUP_REPEATS, 0)


@pytest.mark.parametrize("plan", WL.mix, ids=lambda p: p.name)
def test_reference_matches_program(model, checker, plan):
    gate = bench.Gate()
    req = served(model, plan)
    assert bench.check_request(gate, req, checker.outcome(req))
    assert (gate.attempted, gate.failed) == (1, 0)


def test_corrupted_logits_are_counted(model, checker):
    req = served(model, WL.mix[1])
    expected = checker.outcome(req)
    raw = bytearray(req.logits.tobytes())
    raw[5] ^= 0x01  # one bit of one logit
    req.logits = np.frombuffer(bytes(raw), dtype=req.logits.dtype).reshape(req.logits.shape)
    gate = bench.Gate()
    assert not bench.check_request(gate, req, expected)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_corrupted_ledger_is_counted(model, checker):
    req = served(model, WL.mix[4])
    expected = checker.outcome(req)
    label = next(iter(req.ledger))
    sa, mac = req.ledger[label]
    req.ledger[label] = (sa + 1, mac)
    gate = bench.Gate()
    assert not bench.check_request(gate, req, expected)
    assert gate.failed == 1


def test_exception_is_counted(checker):
    req = served(None, WL.mix[0])  # forward_full on a missing model raises
    assert req.logits is None
    gate = bench.Gate()
    assert not bench.check_request(gate, req, checker.outcome(req))
    assert gate.failed == 1


def test_corrupted_sweep_bytes_are_counted(checker):
    rows, _, _, svg_bytes = checker.sweep(16)
    good = bench.SweepRun(1, 0, ref.rows_csv(rows).encode(), svg_bytes)
    csv = bytearray(good.csv)
    csv[-3] = ord("9") if csv[-3] != ord("9") else ord("8")
    gate = bench.Gate()
    assert bench.check_sweep(gate, good, rows, svg_bytes)
    assert not bench.check_sweep(gate, dataclasses.replace(good, csv=bytes(csv)),
                                 rows, svg_bytes)
    assert not bench.check_sweep(gate, dataclasses.replace(good, svg=good.svg[:-2]),
                                 rows, svg_bytes)
    assert not bench.check_sweep(gate, bench.SweepRun(1, 2), rows, svg_bytes)
    assert (gate.attempted, gate.failed) == (4, 3)


def test_sweep_matches_reference(checker):
    gate = bench.Gate()
    rows, _, _, svg_bytes = checker.sweep(16)
    run = bench.run_sweep_cli(bench.sweep_args(SEED, WL, 16))
    assert bench.check_renderer(gate)
    assert bench.check_sweep(gate, run, rows, svg_bytes)
