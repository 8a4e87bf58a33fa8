//! Blaze runtime errors.

use std::fmt;

/// Errors from the Blaze runtime substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum BlazeError {
    /// A record does not match the declared layout.
    Layout(String),
    /// The accelerator's functional execution failed.
    Accel(String),
    /// A call was refused before anything ran: a bad `ServingConfig` or
    /// tenant, or operators that disagree.
    Config(String),
    /// The JVM fallback path failed.
    Jvm(String),
    /// Operation on an empty dataset that requires data.
    EmptyDataset,
}

impl fmt::Display for BlazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlazeError::Layout(m) => write!(f, "layout mismatch: {m}"),
            BlazeError::Accel(m) => write!(f, "accelerator execution failed: {m}"),
            BlazeError::Config(m) => write!(f, "invalid configuration: {m}"),
            BlazeError::Jvm(m) => write!(f, "jvm execution failed: {m}"),
            BlazeError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
        }
    }
}

impl std::error::Error for BlazeError {}

impl From<s2fa_sjvm::SjvmError> for BlazeError {
    fn from(e: s2fa_sjvm::SjvmError) -> Self {
        BlazeError::Jvm(e.to_string())
    }
}

impl From<s2fa_hlsir::HlsirError> for BlazeError {
    fn from(e: s2fa_hlsir::HlsirError) -> Self {
        BlazeError::Accel(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BlazeError = s2fa_sjvm::SjvmError::OutOfFuel.into();
        assert!(matches!(e, BlazeError::Jvm(_)));
        assert!(BlazeError::EmptyDataset.to_string().contains("non-empty"));
        let e = BlazeError::Config("serving: nodes must be >= 1".into());
        assert_eq!(
            e.to_string(),
            "invalid configuration: serving: nodes must be >= 1"
        );
    }
}
