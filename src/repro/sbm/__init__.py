"""Degree-corrected stochastic blockmodel state and MDL computations."""

from repro.sbm.block_storage import (
    BlockState,
    DenseBlockState,
    RowCDF,
    SparseBlockState,
    available_block_storages,
    get_block_storage,
    register_block_storage,
)
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.entropy import (
    xlogx,
    h_binary,
    dcsbm_log_likelihood,
    description_length,
    null_description_length,
    normalized_description_length,
)
from repro.sbm.delta import (
    VertexMoveContext,
    vertex_move_context,
    vertex_move_delta,
    hastings_correction,
    merge_delta,
)
from repro.sbm.moves import propose_vertex_move, propose_block_merge, accept_probability
from repro.sbm.incremental import (
    RebuildUpdater,
    IncrementalUpdater,
    apply_sweep_delta,
    apply_edge_delta,
)

__all__ = [
    "BlockState",
    "DenseBlockState",
    "SparseBlockState",
    "RowCDF",
    "register_block_storage",
    "get_block_storage",
    "available_block_storages",
    "Blockmodel",
    "xlogx",
    "h_binary",
    "dcsbm_log_likelihood",
    "description_length",
    "null_description_length",
    "normalized_description_length",
    "VertexMoveContext",
    "vertex_move_context",
    "vertex_move_delta",
    "hastings_correction",
    "merge_delta",
    "propose_vertex_move",
    "propose_block_merge",
    "accept_probability",
    "RebuildUpdater",
    "IncrementalUpdater",
    "apply_sweep_delta",
    "apply_edge_delta",
]
