"""Ordinal rank estimation with moving search windows.

The estimator never predicts an absolute rank directly.  It embeds the input
and two references of known rank, regresses the input's relative position
inside the window the references span, and converts that back to an absolute
rank.  Iterating around the previous estimate refines it until it stops
moving; per-range local regressors then polish the result.
"""

from rankwin.data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from rankwin.engine import (InferenceTrace, OracleRegressor, estimate_rank,
                            initial_estimate, model_regress, mwr_step,
                            oracle_regress, run_global, run_local)
from rankwin.errors import (ConfigError, DataError, DigestMismatchError,
                            DomainError, NumericalError, RankwinError,
                            SelectionError, ShapeError)
from rankwin.metrics import (EvalRecord, accuracy, cumulative_score,
                             epsilon_error, mae)
from rankwin.nets import (AdamState, EncoderSpec, HeadSpec, RelativeRegressor,
                          adam_step, load_checkpoint, model_digest,
                          save_checkpoint)
from rankwin.partition import (RankGroup, groups_containing, partition_equal,
                               partition_golden)
from rankwin.refdb import (PairTable, ReferenceDatabase, SelectionKind,
                           SelectionScheme, build_database, knn_ranks,
                           load_database, save_database, select_references)
from rankwin.training import TrainConfig, sample_triplets, train
from rankwin.windows import (RankRange, RankScale, ScaleKind, SearchWindow,
                             make_window, reconstruct_rank, relative_rank,
                             relative_rank_array, round_half_up, window_bounds)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ConfigError", "DataError", "Dataset", "DigestMismatchError",
    "DomainError", "EncoderSpec", "EvalRecord", "HeadSpec", "InferenceTrace",
    "NumericalError", "OracleRegressor", "PairTable", "RankGroup", "RankRange",
    "RankScale", "RankwinError", "ReferenceDatabase", "RelativeRegressor",
    "ScaleKind", "SearchWindow", "SelectionError", "SelectionKind",
    "SelectionScheme", "ShapeError", "SyntheticSpec", "TrainConfig",
    "accuracy", "adam_step", "build_database", "cumulative_score",
    "epsilon_error", "estimate_rank", "generate_synthetic",
    "groups_containing", "initial_estimate", "knn_ranks", "load_checkpoint",
    "load_database", "load_dataset", "mae", "make_window", "model_digest",
    "model_regress", "mwr_step", "oracle_regress", "partition_equal", "partition_golden", "reconstruct_rank",
    "relative_rank", "relative_rank_array", "round_half_up", "run_global",
    "run_local", "sample_triplets", "save_checkpoint", "save_database",
    "save_dataset", "select_references", "train", "window_bounds",
]
