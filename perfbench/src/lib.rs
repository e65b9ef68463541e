//! Repository benchmark for the PDM reproduction: a seeded, single-client,
//! closed-loop load generator over the public `Session` / `PdmServer` API,
//! with an oracle computed apart from the program and a traced replay
//! that times each layer from outside. See `README.md` beside this crate.

pub mod actions;
pub mod oracle;
pub mod run;
pub mod trace;
pub mod workload;
