//! Checkpointed crash recovery for the streaming service.
//!
//! A checkpoint is the service's **event log**, not its state: the
//! service is a deterministic state machine, so re-applying the log
//! from empty rebuilds the exact state (bit-for-bit, counters
//! included) at a fraction of the format complexity. The file is a
//! single `dcc-serve-ckpt/1` JSON document written atomically
//! (tmp + rename, via [`dcc_faults::save_json_atomic`]) so a crash
//! mid-write never leaves a torn checkpoint behind.

use dcc_core::CoreError;
use dcc_faults::{save_json_atomic, Json};
use std::path::Path;

use crate::event::ServeEvent;

/// Format tag of the checkpoint document.
pub const CKPT_FORMAT: &str = "dcc-serve-ckpt/1";

/// Writes the event log as a checkpoint, atomically.
///
/// # Errors
///
/// Propagates I/O failures (the tmp file is removed on error).
pub fn save_checkpoint(path: &Path, log: &[ServeEvent]) -> Result<(), CoreError> {
    let rounds = log.iter().filter(|e| matches!(e, ServeEvent::Round)).count();
    let doc = Json::Obj(vec![
        ("format".to_string(), Json::Str(CKPT_FORMAT.to_string())),
        ("rounds_emitted".to_string(), Json::idx(rounds)),
        (
            "events".to_string(),
            Json::Arr(log.iter().map(ServeEvent::to_json).collect()),
        ),
    ]);
    save_json_atomic(path, &doc)
}

/// Loads a checkpointed event log.
///
/// # Errors
///
/// Returns [`CoreError`] for I/O failures, malformed JSON, a wrong
/// format tag, or an undecodable event.
pub fn load_checkpoint(path: &Path) -> Result<Vec<ServeEvent>, CoreError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CoreError::io(format!("read checkpoint {}", path.display()), e))?;
    let doc = Json::parse(&text)?;
    let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
    if format != CKPT_FORMAT {
        return Err(CoreError::InvalidInput(format!(
            "checkpoint {} has format {format:?}, expected {CKPT_FORMAT:?}",
            path.display()
        )));
    }
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "checkpoint {} is missing the \"events\" array",
                path.display()
            ))
        })?;
    events.iter().map(ServeEvent::from_json).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::event::events_from_trace;
    use dcc_trace::SyntheticConfig;

    #[test]
    fn checkpoint_round_trips_the_event_log() {
        let trace = SyntheticConfig::small(9).generate();
        let log = events_from_trace(&trace);
        let dir = std::env::temp_dir().join("dcc-serve-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.json");
        save_checkpoint(&path, &log).expect("save");
        let back = load_checkpoint(&path).expect("load");
        assert_eq!(back, log);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_format_is_rejected() {
        let dir = std::env::temp_dir().join("dcc-serve-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"format\":\"other/9\",\"events\":[]}").expect("write");
        let err = load_checkpoint(&path).expect_err("must reject");
        assert!(err.to_string().contains("dcc-serve-ckpt/1"), "{err}");
        std::fs::remove_file(&path).ok();

        let err = load_checkpoint(&dir.join("missing.json")).expect_err("no such file");
        assert!(matches!(err, CoreError::Io { .. }), "{err}");
    }
}
