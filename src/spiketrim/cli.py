"""Command-line interface.

Subcommands:
    gen        synthesize a dataset to tensor files
    train-head build a model, fit the ridge head, save both
    run        single evaluation (self-contained or from saved artifacts)
    sweep      strategy x ratio x seed grid -> CSV + SVG
    sop        block-level operation/energy report across keep ratios
    selftest   run the frozen oracle examples

Exit codes: 0 success, 1 usage error, 2 data/contract error.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .backbone import ModelConfig, init_model, load_model, save_model, token_logits
from .data import (SyntheticSpec, bayes_accuracy, load_dataset, save_dataset,
                   synth_dataset)
from .head import RidgeConfig, accuracies, train_head
from .neuron import LifParams
from .selection import STRATEGY_KINDS, mask_csv
from .sweep import (SweepConfig, build_plan, parse_config_text, prepared_model,
                    rows_csv, run_sweep, sop_rows, sweep_config_from_entries)
from .efficiency import energy_mj, sop_report_csv
from .engine import forward_prefix, forward_suffix
from .selftest import run_selftest
from .svg import emit_svg_lines
from .uncertainty import SCORE_MODES, trajectory_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _flag(f) -> str:
    return f"--{f.name.replace('_', '-')}"


def _add_data_flags(p: argparse.ArgumentParser):
    for f in fields(SyntheticSpec):
        p.add_argument(_flag(f), type=type(f.default), default=f.default)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--vth", type=float, default=1.0)
    p.add_argument("--attn-shift", type=int, default=1)
    p.add_argument("--insert-block", metavar="S.B",
                   help="insertion block (default: the model's own; 3.1 for a new model)")
    p.add_argument("--l2", type=float, default=1e-3)


def _spec_from(args) -> SyntheticSpec:
    return SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})


def _model_config_from(args, spec: SyntheticSpec, seed: int) -> ModelConfig:
    return ModelConfig(
        steps=spec.steps, in_channels=spec.channels,
        height=spec.grid, width=spec.grid, num_classes=spec.classes,
        lif=LifParams(tau=args.tau, v_th=args.vth), seed=seed,
        attn_shift=args.attn_shift,
        insert_block=args.insert_block or ModelConfig.insert_block,
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="spiketrim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a dataset to tensor files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    _add_data_flags(p)

    p = sub.add_parser("train-head", help="init model, fit ridge head, save")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    _add_model_flags(p)

    p = sub.add_parser("run", help="single evaluation")
    p.add_argument("--data", help="dataset directory (default: synthesize from --seed)")
    p.add_argument("--model", help="model directory (default: train from --seed)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--strategy", default="none",
                   choices=sorted(STRATEGY_KINDS))
    p.add_argument("--keep-ratio", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.9)
    p.add_argument("--score-mode", default="full", choices=SCORE_MODES)
    p.add_argument("--dump-uncertainty", metavar="PATH")
    p.add_argument("--dump-mask", metavar="PATH")
    _add_model_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("sweep", help="strategy x ratio x seed grid")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory for CSV/SVG")
    p.add_argument("--strategies")
    p.add_argument("--ratios")
    p.add_argument("--seeds")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--score-mode", choices=SCORE_MODES)
    _add_model_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("sop", help="block-level SOP/energy report")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--keep-ratios", default="1.0,0.8,0.6,0.4")
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_model_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("selftest", help="run the frozen oracle examples")
    return parser


def _cmd_gen(args) -> int:
    spec = _spec_from(args)
    train, test = synth_dataset(spec, args.seed)
    out = Path(args.out)
    save_dataset(train, out / "train")
    save_dataset(test, out / "test")
    print(f"wrote {spec.train_samples} train / {spec.test_samples} test samples to {out}")
    print(f"bayes_acc1={bayes_accuracy(test):.6f}")
    return 0


def _cmd_train_head(args) -> int:
    train = load_dataset(Path(args.data) / "train")
    model = init_model(_model_config_from(args, train.spec, args.seed))
    feats = train_head(model, train.frames, train.labels, RidgeConfig(l2=args.l2))
    save_model(model, args.out)
    acc1, _ = accuracies(token_logits(feats, model.head), train.labels)
    print(f"train_acc1={acc1:.6f}")
    print(f"saved model to {args.out}")
    return 0


def _prepare_run(args):
    if args.data:
        ignored = [_flag(f) for f in fields(SyntheticSpec)
                   if getattr(args, f.name) != f.default]
        if ignored:
            raise _UsageError(f"{', '.join(ignored)} ignored: --data fixes the dataset")
        test = load_dataset(Path(args.data) / "test")
        if args.model:
            model = load_model(args.model)
        else:
            train = load_dataset(Path(args.data) / "train")
            model = init_model(_model_config_from(args, train.spec, args.seed))
            train_head(model, train.frames, train.labels, RidgeConfig(l2=args.l2))
        return model, test
    spec = _spec_from(args)
    if args.model:
        model = load_model(args.model)
        _, test = synth_dataset(spec, args.seed)
        return model, test
    model_cfg = _model_config_from(args, spec, args.seed)
    model, _, test = prepared_model(model_cfg, spec, args.seed, args.l2)
    return model, test


def _cmd_run(args) -> int:
    model, test = _prepare_run(args)
    if args.insert_block:  # overrides a loaded model's own block
        model.config = replace(model.config, insert_block=args.insert_block)
    sweep_cfg = SweepConfig(lam=args.lam, score_mode=args.score_mode, seeds=(args.seed,))
    plan = build_plan(sweep_cfg, args.strategy, args.keep_ratio, args.seed)
    prefix = forward_prefix(model, test.frames)
    result = forward_suffix(model, prefix, plan)
    acc1, _ = accuracies(result.logits, test.labels)
    sa, mac = result.ledger.totals(prefix=prefix.label)
    print(f"strategy={args.strategy} keep_ratio={args.keep_ratio:.6f} seed={args.seed}")
    print(f"acc1={acc1:.6f}")
    print(f"block_sops={sa}")
    print(f"block_macs={mac}")
    print(f"energy_mj={energy_mj(result.ledger):.6f}")
    print(f"logits_sha256={hashlib.sha256(result.logits.data.tobytes()).hexdigest()}")
    # both dumps describe the insertion block's input tokens
    if args.dump_uncertainty:
        Path(args.dump_uncertainty).write_bytes(
            trajectory_csv(prefix.trajectories(model.head)).encode())
        print(f"wrote {args.dump_uncertainty}")
    if args.dump_mask:
        Path(args.dump_mask).write_bytes(mask_csv(result.selection.anchor).encode())
        print(f"wrote {args.dump_mask}")
    return 0


def _cmd_sweep(args) -> int:
    entries = {}
    if args.config:
        entries = parse_config_text(Path(args.config).read_text())
    # the file's insertion block is the model's and wins over the flag
    args.insert_block = entries.pop("insert_block", args.insert_block)
    if args.strategies:
        entries["strategies"] = args.strategies
    if args.ratios:
        entries["keep_ratios"] = args.ratios
    if args.seeds:
        entries["seeds"] = args.seeds
    if args.lam is not None:
        entries["lambda"] = str(args.lam)
    if args.score_mode:
        entries["score_mode"] = args.score_mode
    entries.setdefault("l2", repr(args.l2))
    cfg = sweep_config_from_entries(entries)
    spec = _spec_from(args)
    model_cfg = _model_config_from(args, spec, cfg.seeds[0])
    rows = run_sweep(cfg, model_cfg, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_text = rows_csv(rows, spec.classes)
    (out / "results.csv").write_bytes(csv_text.encode())
    (out / "results.svg").write_bytes(emit_svg_lines(rows).encode())
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    print(f"wrote {out / 'results.svg'}")
    return 0


def _cmd_sop(args) -> int:
    spec = _spec_from(args)
    model_cfg = _model_config_from(args, spec, args.seed)
    sweep_cfg = SweepConfig(seeds=(args.seed,))
    model, _, test = prepared_model(model_cfg, spec, args.seed, args.l2)
    ratios = [float(s) for s in args.keep_ratios.split(",")]
    rows = sop_rows(model, test, ratios, args.seed, sweep_cfg)
    text = sop_report_csv(rows)
    if args.out:
        Path(args.out).write_bytes(text.encode())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(_args) -> int:
    failures = run_selftest()
    return 0 if failures == 0 else 2


_COMMANDS = {
    "gen": _cmd_gen,
    "train-head": _cmd_train_head,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "sop": _cmd_sop,
    "selftest": _cmd_selftest,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
