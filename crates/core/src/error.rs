//! Error type for the pipeline and streaming-session APIs.

use crate::ids::CameraId;
use std::fmt;

/// Everything that can go wrong constructing or driving the DiEvent
/// pipeline.
///
/// The analysis math itself is total — errors come from the *plumbing*:
/// invalid configuration, camera lane threads that died or could not
/// start, a closed session, or the metadata store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiEventError {
    /// A configuration value fails validation (see
    /// [`PipelineConfig::validate`](crate::PipelineConfig::validate)).
    InvalidConfig(String),
    /// A frame was pushed for a camera index outside the rig.
    UnknownCamera {
        /// The offending camera.
        camera: CameraId,
        /// Number of cameras the session was built with.
        cameras: usize,
    },
    /// A frame's size differs from the session's video spec; it was
    /// refused before it took a frame index.
    FrameSize {
        /// The camera the frame was pushed for.
        camera: CameraId,
        /// The session's `(width, height)`.
        expected: (u32, u32),
        /// The refused frame's `(width, height)`.
        got: (u32, u32),
    },
    /// The session no longer accepts input on this path: it was closed,
    /// or the camera's feed was detached with
    /// [`PipelineSession::take_feeds`](crate::PipelineSession::take_feeds).
    SessionClosed,
    /// A camera's lane thread panicked.
    CameraThreadPanicked {
        /// The camera whose thread died.
        camera: usize,
    },
    /// The operating system refused to start a camera's lane thread
    /// when the session opened.
    CameraThreadSpawn {
        /// The camera whose thread could not start.
        camera: usize,
        /// The spawn error's text.
        message: String,
    },
    /// A frame-extraction chunk running on the session's thread pool
    /// panicked. The session's results are discarded rather than
    /// returned partially.
    PoolWorkerPanicked,
    /// The metadata repository rejected an insert.
    Store(String),
    /// The live observability plane could not be started (typically the
    /// configured metrics address failed to bind).
    Observe(String),
}

impl fmt::Display for DiEventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiEventError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DiEventError::UnknownCamera { camera, cameras } => {
                write!(f, "camera {camera} out of range (rig has {cameras})")
            }
            DiEventError::FrameSize {
                camera,
                expected: (ew, eh),
                got: (gw, gh),
            } => write!(
                f,
                "camera {camera} frame is {gw}x{gh}, the session's frames are {ew}x{eh}"
            ),
            DiEventError::SessionClosed => write!(f, "session is closed to new input"),
            DiEventError::CameraThreadPanicked { camera } => {
                write!(f, "camera {camera} lane thread panicked")
            }
            DiEventError::CameraThreadSpawn { camera, message } => {
                write!(f, "camera {camera} lane thread could not start: {message}")
            }
            DiEventError::PoolWorkerPanicked => {
                write!(f, "a frame-extraction pool task panicked")
            }
            DiEventError::Store(msg) => write!(f, "metadata store error: {msg}"),
            DiEventError::Observe(msg) => write!(f, "observability plane error: {msg}"),
        }
    }
}

impl std::error::Error for DiEventError {}

impl From<std::io::Error> for DiEventError {
    fn from(e: std::io::Error) -> Self {
        DiEventError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DiEventError::InvalidConfig("capacity 0".into())
            .to_string()
            .contains("capacity 0"));
        assert!(DiEventError::UnknownCamera {
            camera: CameraId::new(5),
            cameras: 2
        }
        .to_string()
        .contains('5'));
        assert!(DiEventError::CameraThreadPanicked { camera: 1 }
            .to_string()
            .contains("camera 1"));
        let spawn = DiEventError::CameraThreadSpawn {
            camera: 2,
            message: "out of threads".into(),
        };
        assert!(spawn.to_string().contains("camera 2"));
        assert!(spawn.to_string().contains("out of threads"));
        let size = DiEventError::FrameSize {
            camera: CameraId::new(0),
            expected: (640, 480),
            got: (320, 240),
        };
        assert!(size.to_string().contains("320x240"));
        assert!(size.to_string().contains("640x480"));
    }

    #[test]
    fn io_errors_convert_to_store() {
        let io = std::io::Error::other("disk gone");
        let e: DiEventError = io.into();
        assert_eq!(e, DiEventError::Store("disk gone".into()));
    }
}
