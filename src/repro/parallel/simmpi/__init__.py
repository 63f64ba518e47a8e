"""Simulated MPI substrate: communicator, wire datatypes, reductions.

Stands in for the paper's MPI environment (Fig. 6): ranks exchange only
packed bytes over FIFO channels, the reduction is a genuine binomial
tree, and custom datatypes/ops carry the HP and Hallberg partials —
the same machinery the paper built with ``MPI_Type_create`` and
``MPI_Op_create``.
"""

from repro.parallel.simmpi.collectives import bcast, distributed_sum, gatherv, scatterv
from repro.parallel.simmpi.comm import SimComm, TrafficStats
from repro.parallel.simmpi.datatypes import (
    Datatype,
    DoubleType,
    HallbergPartialType,
    HPWordsType,
    SmallaccChunksType,
    datatype_for_method,
)
from repro.parallel.simmpi.reduce import (
    MPIReduceResult,
    mpi_allreduce_partials,
    mpi_allreduce_recursive_doubling,
    mpi_reduce,
    mpi_reduce_partials,
)

__all__ = [
    "SimComm",
    "TrafficStats",
    "Datatype",
    "DoubleType",
    "HPWordsType",
    "SmallaccChunksType",
    "HallbergPartialType",
    "datatype_for_method",
    "scatterv",
    "gatherv",
    "bcast",
    "distributed_sum",
    "MPIReduceResult",
    "mpi_reduce",
    "mpi_reduce_partials",
    "mpi_allreduce_partials",
    "mpi_allreduce_recursive_doubling",
]
