//! Error types for library construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or validating a
/// [`BufferLibrary`](crate::BufferLibrary).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LibraryError {
    /// The library contains no buffer types where at least one is required.
    Empty,
    /// A buffer parameter is NaN or infinite.
    NonFiniteParameter {
        /// Position of the offending buffer type in the list.
        index: usize,
        /// Name of the offending buffer type.
        buffer: String,
        /// Which parameter was non-finite (`"resistance"`, `"capacitance"`, ...).
        field: &'static str,
    },
    /// Driving resistance must be strictly positive.
    NonPositiveResistance {
        /// Position of the offending buffer type in the list.
        index: usize,
        /// Name of the offending buffer type.
        buffer: String,
    },
    /// Input capacitance must be non-negative.
    NegativeCapacitance {
        /// Position of the offending buffer type in the list.
        index: usize,
        /// Name of the offending buffer type.
        buffer: String,
    },
    /// Intrinsic delay must be non-negative.
    NegativeIntrinsicDelay {
        /// Position of the offending buffer type in the list.
        index: usize,
        /// Name of the offending buffer type.
        buffer: String,
    },
    /// Intrinsic output slew must be non-negative.
    NegativeOutputSlew {
        /// Position of the offending buffer type in the list.
        index: usize,
        /// Name of the offending buffer type.
        buffer: String,
    },
    /// Buffer cost must be non-negative and finite.
    InvalidCost {
        /// Position of the offending buffer type in the list.
        index: usize,
        /// Name of the offending buffer type.
        buffer: String,
    },
    /// Two buffer types share the same name.
    DuplicateName {
        /// Position of the later buffer type carrying the name.
        index: usize,
        /// The duplicated name.
        name: String,
    },
}

impl LibraryError {
    /// Position of the offending buffer type in the list the library was
    /// built from (`None` for an empty list).
    pub fn buffer_index(&self) -> Option<usize> {
        match self {
            LibraryError::Empty => None,
            LibraryError::NonFiniteParameter { index, .. }
            | LibraryError::NonPositiveResistance { index, .. }
            | LibraryError::NegativeCapacitance { index, .. }
            | LibraryError::NegativeIntrinsicDelay { index, .. }
            | LibraryError::NegativeOutputSlew { index, .. }
            | LibraryError::InvalidCost { index, .. }
            | LibraryError::DuplicateName { index, .. } => Some(*index),
        }
    }
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::Empty => write!(f, "buffer library is empty"),
            LibraryError::NonFiniteParameter { buffer, field, .. } => {
                write!(f, "buffer `{buffer}` has a non-finite {field}")
            }
            LibraryError::NonPositiveResistance { buffer, .. } => {
                write!(f, "buffer `{buffer}` has a non-positive driving resistance")
            }
            LibraryError::NegativeCapacitance { buffer, .. } => {
                write!(f, "buffer `{buffer}` has a negative input capacitance")
            }
            LibraryError::NegativeIntrinsicDelay { buffer, .. } => {
                write!(f, "buffer `{buffer}` has a negative intrinsic delay")
            }
            LibraryError::NegativeOutputSlew { buffer, .. } => {
                write!(f, "buffer `{buffer}` has a negative output slew")
            }
            LibraryError::InvalidCost { buffer, .. } => {
                write!(f, "buffer `{buffer}` has a negative or non-finite cost")
            }
            LibraryError::DuplicateName { name, .. } => {
                write!(f, "buffer name `{name}` appears more than once")
            }
        }
    }
}

impl Error for LibraryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = LibraryError::Empty;
        assert_eq!(e.to_string(), "buffer library is empty");
        let e = LibraryError::DuplicateName {
            index: 1,
            name: "x4".into(),
        };
        assert!(e.to_string().contains("x4"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<LibraryError>();
    }
}
