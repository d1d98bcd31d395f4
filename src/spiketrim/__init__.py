"""spiketrim: spiking-transformer inference with uncertainty-guided token
reduction and synaptic-operation energy accounting."""

from .backbone import (HeadWeights, Model, ModelConfig, SsaBlockWeights,
                       StageConfig, attention_core, init_model, load_model,
                       patch_embed, save_model, ssa_forward, token_logits)
from .data import Dataset, SyntheticSpec, bayes_accuracy, synth_dataset
from .efficiency import (EnergyModel, SopLedger, count_attention, count_linear,
                         energy_mj, reduction_percent)
from .engine import (ForwardResult, Prefix, ReductionPlan, forward_full,
                     forward_prefix, forward_suffix, pool_tokens)
from .errors import ConfigError, ContractError, CountOverflowError, ShapeError
from .head import RidgeConfig, accuracies, fit_ridge, ridge_solve, train_head
from .neuron import LifParams, LifState, lif_sequence, lif_step
from .selection import (Strategy, apply_merge, build_keep_mask,
                        build_merge_assignment, merged_ssa, pruned_ssa_batched)
from .sweep import ResultRow, SweepConfig, run_sweep, rows_csv
from .svg import emit_svg_lines
from .tensors import DenseTensor, SpikeTensor, topk_rows
from .uncertainty import score_tokens, uncertainty_trajectories

__version__ = "0.1.0"
