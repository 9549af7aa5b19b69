"""Conversion of analog MLPs into integrate-and-fire spiking networks:
staircase fine-tuning, threshold calibration, diagnostics, and energy
accounting, plus a config-driven experiment runner."""

from .ann import (AnnModel, Embedding, Linear, Qcfs, Relu, TrainConfig, ann_forward,
                  mlp, qcfs_forward, replace_activations, stage1_finetune, train_model)
from .autodiff import AdamState, adam_step
from .calibrate import (CalibConfig, activation_align_loss, apply_stage2, convert,
                        logits_loss, lwc, nwc_calibrate)
from .checkpoint import IntegrityError, load_checkpoint, save_checkpoint, weight_hash
from .config import ConfigError, ExperimentConfig, config_hash, parse_config
from .data import DataSpec, Dataset, DatasetSplits, make_dataset
from .diagnostics import (ErrorReport, decompose_errors, layer_mse_report,
                          output_cosine, tau_histogram, threshold_shift_report)
from .energy import count_ops, energy_report, spike_rate_stats
from .snn import (IfLayer, SimulationError, SnnNetwork, SpikeRecord, if_step, simulate,
                  surrogate_spike_grad, theoretical_spike_count)
from .tensor import Rng, TensorCodecError, decode_tensor, encode_tensor

__version__ = "0.1.0"
