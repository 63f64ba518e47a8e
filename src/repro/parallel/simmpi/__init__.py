"""Simulated MPI substrate: communicator, collectives, reductions.

Stands in for the paper's MPI environment (Fig. 6): ranks exchange only
packed bytes over FIFO channels, and the reduction is a genuine binomial
tree.  The paper built a custom datatype with ``MPI_Type_create`` and an
``MPI_Op`` with ``MPI_Op_create``; here the method adapter
(:class:`repro.parallel.methods.ReductionMethod`) is both: its
``pack``/``unpack`` are the datatype and its ``combine`` is the op.
"""

from repro.parallel.simmpi.collectives import bcast, distributed_sum, gatherv, scatterv
from repro.parallel.simmpi.comm import SimComm, TrafficStats
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
