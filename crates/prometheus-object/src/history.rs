//! Change history — traceability over time (requirement 4, and the useful
//! half of HICLAS' idea).
//!
//! The thesis criticises HICLAS for conflating a taxon's *history* with its
//! *identity* (§2.2), but the underlying wish — "show me what happened to
//! this object, when, in which unit of work" — is legitimate and the
//! Prometheus event layer makes it cheap: [`HistoryRecorder`] is an
//! [`EventListener`] that, at each successful unit commit, appends the
//! unit's events to a per-subject journal in the store. Rolled-back units
//! leave no trace: the recorder only sees the event set of a unit that is
//! committing, and its entries are writes of that unit, dropped with it if
//! a later deferred listener vetoes the commit.
//!
//! History entries are *data about the database*, never interpreted by it —
//! exactly the separation the thesis demands.

use crate::database::Database;
use crate::error::DbResult;
use crate::events::{Event, EventListener};
use crate::read::Reader;
use prometheus_storage::{codec, Keyspace, Oid};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Keyspace holding history entries (`subject oid · seq` → entry).
pub const KS_HISTORY: Keyspace = Keyspace(7);

/// One recorded change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Global sequence number (total order across the database).
    pub seq: u64,
    /// Subject of the change.
    pub subject: Oid,
    /// Event kind, e.g. `"object-created"`, `"attr-updated"`.
    pub kind: String,
    /// Human-readable detail (attribute name and values, endpoints, …).
    pub detail: String,
}

/// Event listener that persists committed events as history.
pub struct HistoryRecorder {
    seq: AtomicU64,
}

impl HistoryRecorder {
    /// Install a recorder on `db`. The sequence counter resumes from the
    /// highest recorded entry.
    pub fn install(db: &Database) -> DbResult<Arc<HistoryRecorder>> {
        let mut max_seq = 0u64;
        db.raw_kv_for_each_prefix(KS_HISTORY, &[], |_, value| {
            if let Ok(entry) = codec::from_bytes::<HistoryEntry>(value) {
                max_seq = max_seq.max(entry.seq);
            }
        });
        let recorder = Arc::new(HistoryRecorder {
            seq: AtomicU64::new(max_seq + 1),
        });
        db.add_listener(recorder.clone());
        Ok(recorder)
    }

    fn describe(event: &Event) -> (String, String) {
        match event {
            Event::ObjectCreated { class, .. } => {
                ("object-created".into(), format!("class {class}"))
            }
            Event::ObjectUpdated {
                class,
                attr,
                old,
                new,
                ..
            } => (
                "attr-updated".into(),
                format!("{class}.{attr}: {old} -> {new}"),
            ),
            Event::ObjectDeleted { class, .. } => {
                ("object-deleted".into(), format!("class {class}"))
            }
            Event::RelCreated {
                class,
                origin,
                destination,
                ..
            } => (
                "rel-created".into(),
                format!("{class}: {origin} -> {destination}"),
            ),
            Event::RelUpdated {
                class,
                attr,
                old,
                new,
                ..
            } => (
                "rel-attr-updated".into(),
                format!("{class}.{attr}: {old} -> {new}"),
            ),
            Event::RelDeleted {
                class,
                origin,
                destination,
                ..
            } => (
                "rel-deleted".into(),
                format!("{class}: {origin} -> {destination}"),
            ),
            Event::ClassificationEdgeAdded {
                classification,
                rel,
            } => (
                "classified".into(),
                format!("edge {rel} joined classification {classification}"),
            ),
            Event::ClassificationEdgeRemoved {
                classification,
                rel,
            } => (
                "declassified".into(),
                format!("edge {rel} left classification {classification}"),
            ),
        }
    }

    fn key(subject: Oid, seq: u64) -> Vec<u8> {
        let mut key = Vec::with_capacity(16);
        key.extend_from_slice(&subject.to_be_bytes());
        key.extend_from_slice(&seq.to_be_bytes());
        key
    }
}

impl EventListener for HistoryRecorder {
    fn at_commit(&self, db: &Database, events: &[Event]) -> DbResult<()> {
        if events.is_empty() {
            return Ok(());
        }
        let mut entries = Vec::with_capacity(events.len());
        for event in events {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let (kind, detail) = HistoryRecorder::describe(event);
            let entry = HistoryEntry {
                seq,
                subject: event.subject(),
                kind,
                detail,
            };
            let key = HistoryRecorder::key(entry.subject, seq);
            entries.push((key, codec::to_bytes(&entry)?));
        }
        db.stage(|t| {
            for (key, bytes) in entries {
                t.kv_put(KS_HISTORY, key, bytes);
            }
        })
    }
}

/// The recorded history of one subject, oldest first.
pub fn history_of(db: &Database, subject: Oid) -> DbResult<Vec<HistoryEntry>> {
    let mut decoded = Vec::new();
    db.raw_kv_for_each_prefix(KS_HISTORY, &subject.to_be_bytes(), |_, value| {
        decoded.push(codec::from_bytes::<HistoryEntry>(value));
    });
    let mut out = decoded.into_iter().collect::<Result<Vec<_>, _>>()?;
    out.sort_by_key(|e| e.seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::{open_at, store_contents, temp_db};
    use crate::error::DbError;
    use crate::schema::{AttrDef, ClassDef, RelClassDef};
    use crate::value::Type;
    use crate::value::Value;

    fn setup() -> (Database, Arc<HistoryRecorder>) {
        let db = temp_db();
        db.define_class(ClassDef::new("CT").attr(AttrDef::required("name", Type::Str)))
            .unwrap();
        db.define_relationship(RelClassDef::association("R", "CT", "CT"))
            .unwrap();
        let recorder = HistoryRecorder::install(&db).unwrap();
        (db, recorder)
    }

    fn attrs(name: &str) -> Vec<(String, Value)> {
        vec![("name".to_string(), Value::from(name))]
    }

    #[test]
    fn committed_changes_are_recorded_in_order() {
        let (db, _) = setup();
        let a = db.create_object("CT", attrs("a")).unwrap();
        db.set_attr(a, "name", "a2").unwrap();
        let b = db.create_object("CT", attrs("b")).unwrap();
        let rel = db.create_relationship("R", a, b, Vec::new()).unwrap();
        db.delete_relationship(rel).unwrap();

        let history = history_of(&db, a).unwrap();
        let kinds: Vec<&str> = history.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["object-created", "attr-updated"]);
        assert!(history[1].detail.contains("\"a\" -> \"a2\""));
        // Sequence numbers are globally monotone.
        let rel_history = history_of(&db, rel).unwrap();
        assert_eq!(rel_history.len(), 2); // created + deleted
        assert!(rel_history[0].seq > history[1].seq);
        assert!(rel_history[1].seq > rel_history[0].seq);
    }

    #[test]
    fn rolled_back_units_leave_no_history() {
        let (db, _) = setup();
        let keep = db.create_object("CT", attrs("keep")).unwrap();
        let token = db.begin_unit();
        let doomed = db.create_object("CT", attrs("doomed")).unwrap();
        db.set_attr(keep, "name", "mutated").unwrap();
        db.abort_unit(token);
        assert!(history_of(&db, doomed).unwrap().is_empty());
        // The aborted update is absent too: only the original creation shows.
        let history = history_of(&db, keep).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].kind, "object-created");
    }

    struct Veto;
    impl EventListener for Veto {
        fn at_commit(&self, _db: &Database, _events: &[Event]) -> DbResult<()> {
            Err(DbError::ConstraintViolation {
                rule: "veto".into(),
                reason: "nothing commits".into(),
            })
        }
    }

    #[test]
    fn units_vetoed_after_the_recorder_ran_leave_no_history() {
        let (db, _) = setup();
        let keep = db.create_object("CT", attrs("keep")).unwrap();
        // Installed after the recorder, so the recorder has already written
        // the unit's entries when this listener fails the commit.
        db.add_listener(Arc::new(Veto));
        let token = db.begin_unit();
        let doomed = db.create_object("CT", attrs("doomed")).unwrap();
        db.set_attr(keep, "name", "mutated").unwrap();
        assert!(db.commit_unit(token).is_err());
        assert!(history_of(&db, doomed).unwrap().is_empty());
        assert_eq!(history_of(&db, keep).unwrap().len(), 1);
        // Live state is what a reopen replays from the log.
        let live = store_contents(&db);
        let path = db.store().path().to_path_buf();
        drop(db);
        let reopened = open_at(&path, Default::default());
        assert_eq!(live, store_contents(&reopened));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sequence_resumes_after_reinstall() {
        let (db, _) = setup();
        let a = db.create_object("CT", attrs("a")).unwrap();
        let before = history_of(&db, a).unwrap().last().unwrap().seq;
        // A second recorder (as after a reopen) continues the numbering;
        // note both recorders are now attached, so each commit is recorded
        // twice from here on — install exactly one per database in practice.
        let r2 = HistoryRecorder::install(&db).unwrap();
        assert!(r2.seq.load(Ordering::Relaxed) > before);
    }
}
