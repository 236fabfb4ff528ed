//! Crate-level error hierarchy for the engine.
//!
//! Both schedulers report failures at two boundaries — submission
//! ([`SubmitError`]: the job never entered the queue) and execution
//! ([`JobError`]: the job ran and faulted). [`Error`] unifies both so a
//! caller that just wants "did my request work" matches one type; the
//! TCP service maps it to wire error codes in a single `match`. `From`
//! conversions lift every lower-level error (backend faults, bus
//! streaming faults, mode-layer length errors) into the hierarchy.

use core::fmt;

use aes_ip::bus::StreamError;

use crate::backend::BackendError;
use crate::job::{JobError, SubmitError};

/// Any failure the engine can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Rejected at the submission boundary; the job holds no queue slot.
    Submit(SubmitError),
    /// An accepted job faulted during execution.
    Job(JobError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Submit(e) => write!(f, "submit rejected: {e}"),
            Error::Job(e) => write!(f, "job failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Submit(e) => Some(e),
            Error::Job(e) => Some(e),
        }
    }
}

impl From<SubmitError> for Error {
    fn from(e: SubmitError) -> Self {
        Error::Submit(e)
    }
}

impl From<JobError> for Error {
    fn from(e: JobError) -> Self {
        Error::Job(e)
    }
}

impl From<BackendError> for Error {
    fn from(e: BackendError) -> Self {
        Error::Job(JobError::Backend(e))
    }
}

impl From<StreamError> for Error {
    fn from(e: StreamError) -> Self {
        Error::Job(JobError::Backend(BackendError::Bus(e)))
    }
}

impl From<rijndael::Error> for Error {
    /// Mode-layer input errors are submission-boundary errors: a ragged
    /// buffer (or an IV of the wrong width) never reaches a core.
    fn from(e: rijndael::Error) -> Self {
        match e {
            rijndael::Error::RaggedLength { len, .. } => {
                Error::Submit(SubmitError::RaggedLength { len })
            }
            rijndael::Error::BadIv { len, .. } => Error::Submit(SubmitError::BadIv { len }),
        }
    }
}

impl From<rijndael::modes::LengthError> for Error {
    fn from(e: rijndael::modes::LengthError) -> Self {
        Error::Submit(SubmitError::RaggedLength { len: e.len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aes_ip::core::Direction;
    use std::error::Error as _;

    #[test]
    fn conversions_land_in_the_right_arm() {
        let busy: Error = SubmitError::Busy { capacity: 2 }.into();
        assert_eq!(busy, Error::Submit(SubmitError::Busy { capacity: 2 }));
        assert!(busy.to_string().contains("submit rejected"));
        assert!(busy.source().unwrap().to_string().contains("full"));

        let nocore: Error = JobError::NoCapableCore {
            dir: Direction::Decrypt,
        }
        .into();
        assert!(matches!(nocore, Error::Job(_)));
        assert!(nocore.to_string().contains("job failed"));

        let bus: Error = StreamError::CoreBusy.into();
        assert_eq!(
            bus,
            Error::Job(JobError::Backend(BackendError::Bus(StreamError::CoreBusy)))
        );

        let backend: Error = BackendError::Unsupported {
            backend: "ip-decrypt",
            dir: Direction::Encrypt,
        }
        .into();
        assert!(backend.source().unwrap().to_string().contains("cannot"));
    }

    #[test]
    fn mode_layer_errors_map_to_the_submission_boundary() {
        let ragged: Error = rijndael::Error::RaggedLength { len: 17, block: 16 }.into();
        assert_eq!(ragged, Error::Submit(SubmitError::RaggedLength { len: 17 }));
        let bad_iv: Error = rijndael::Error::BadIv { len: 4, block: 16 }.into();
        assert_eq!(bad_iv, Error::Submit(SubmitError::BadIv { len: 4 }));
        let legacy: Error = rijndael::modes::LengthError { len: 33, block: 16 }.into();
        assert_eq!(legacy, Error::Submit(SubmitError::RaggedLength { len: 33 }));
    }
}
