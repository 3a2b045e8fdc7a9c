//! In-process MapReduce runtime — the Hadoop/Hive/Mahout stand-in.
//!
//! The paper finds Hadoop "good at neither data management nor analytics":
//! Hive's rudimentary optimizer materializes everything between jobs, and
//! Mahout's matrix ops run record-at-a-time without BLAS. This crate
//! reproduces the *mechanics* that cause that profile rather than charging a
//! fudge factor:
//!
//! - every map output record is **serialized to bytes**, partitioned by key
//!   hash, **sorted**, and **deserialized** again in the reducer (the real
//!   shuffle data path);
//! - relational operations ([`hive`]) are whole MR jobs — a join is a
//!   repartition join, a filter a map-only pass over serialized records;
//! - linear algebra ([`mahout`]) runs as outer-product / accumulate jobs on
//!   `(index, row-vector)` records, never calling the blocked kernels;
//! - each job launch charges a configurable startup latency to a
//!   [`genbase_util::SimClock`] (JVM spin-up and scheduling, which an
//!   in-process runtime cannot measure honestly; default is zero so all
//!   measured numbers stay pure unless the harness opts in).

// Index-based loops are the idiom throughout these numerical kernels:
// explicit ranges keep the row/column structure of the math visible, and
// iterator rewrites would obscure it without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod hive;
pub mod job;
pub mod mahout;
pub mod record;

pub use hive::{Cell, HiveTable};
pub use job::{run_job, run_map_only, JobConfig};
pub use record::{Encode, Writable};
