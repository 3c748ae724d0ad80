//! Buffer-library, driver, and technology models for the `fastbuf`
//! buffer-insertion toolkit.
//!
//! This crate is the foundation of the workspace reproducing
//! *Li & Shi, "An O(bn²) Time Algorithm for Optimal Buffer Insertion with b
//! Buffer Types", DATE 2005*. It provides:
//!
//! * [`units`] — zero-cost newtypes for the physical quantities the
//!   algorithms manipulate ([`Ohms`], [`Farads`], [`Seconds`], [`Microns`])
//!   with dimension-checked arithmetic (`Ohms * Farads -> Seconds`).
//! * [`BufferType`] — a repeater characterized by driving resistance
//!   `R(B_i)`, input capacitance `C(B_i)` and intrinsic delay `K(B_i)`,
//!   following the linear buffer delay model `d = K + R·C_load` used by the
//!   paper.
//! * [`BufferLibrary`] — an immutable, validated collection of buffer types
//!   with the two sorted orders the O(bn²) algorithm needs precomputed:
//!   non-increasing resistance (Lemma 1) and non-decreasing input
//!   capacitance (Theorem 2).
//! * [`BufferSet`] — a small bitset expressing which library types are legal
//!   at a given buffer position (the paper's `f : V_int -> 2^B`).
//! * [`Technology`] — per-micron wire parasitics; the shipped preset mirrors
//!   the TSMC-180nm-class constants of the paper's evaluation
//!   (0.076 Ω/µm, 0.118 fF/µm).
//! * [`text`] — the one line grammar (comments, numbers, located
//!   [`LineError`](text::LineError)s) every fastbuf text format reads
//!   through.
//!
//! # Example
//!
//! ```
//! use fastbuf_buflib::{BufferLibrary, BufferType, Technology};
//! use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
//!
//! // A two-buffer library: a weak and a strong repeater.
//! let lib = BufferLibrary::new(vec![
//!     BufferType::new("bx1", Ohms::new(7000.0), Farads::from_femto(0.7),
//!                     Seconds::from_pico(29.0)),
//!     BufferType::new("bx8", Ohms::new(180.0), Farads::from_femto(23.0),
//!                     Seconds::from_pico(36.4)),
//! ])?;
//! assert_eq!(lib.len(), 2);
//!
//! // Wire parasitics for 100 µm of metal in the paper's technology.
//! let tech = Technology::tsmc180_like();
//! let (r, c) = tech.wire(Microns::new(100.0));
//! assert!((r.value() - 7.6).abs() < 1e-9);
//! # Ok::<(), fastbuf_buflib::LibraryError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod buffer;
mod bufset;
mod error;
mod library;
mod tech;
pub mod text;
pub mod units;

pub use buffer::{BufferType, BufferTypeId, Driver};
pub use bufset::BufferSet;
pub use error::LibraryError;
pub use library::BufferLibrary;
pub use tech::Technology;
pub use units::{Farads, Microns, Ohms, Seconds};
