//! The `fastbuf` command line's reusable parts: the [`args::Flags`]
//! parser, shared by the `fastbuf` binary and the benchmark harnesses of
//! `fastbuf-bench`.

pub mod args;
