//! Simulated MPI for the TaihuLight reproduction.
//!
//! Provides the messaging substrate the Sunway-specific Uintah schedulers
//! are built on (paper §V): non-blocking point-to-point sends/receives whose
//! progression requires the host MPE to enter the library ([`comm`]), plus
//! closed-form modeled collectives for the per-timestep reductions
//! ([`collective`]).

#![warn(missing_docs)]
pub mod collective;
pub mod comm;

pub use collective::{ModeledAllreduce, ReduceOp};
pub use comm::{
    CommConfig, EndpointId, MpiWorld, Rank, RecvHandle, SendHandle, SharedMpi, Tag, Tested,
    APP_TAG_LIMIT, CTRL_BYTES, MAX_MSG_ID,
};
