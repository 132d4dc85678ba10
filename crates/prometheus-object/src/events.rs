//! The event layer (thesis §6.1.1, Figure 27).
//!
//! Every structural mutation of the database raises an [`Event`]. Listeners
//! — in practice the rule engine of `prometheus-rules` — see each event
//! twice:
//!
//! * **before** the mutation is applied, where returning an error *vetoes*
//!   the operation (pre-condition rules, §5.2.1.4.2);
//! * **after** it is applied, where an error fails the operation just the
//!   same (immediate invariants and post-conditions).
//!
//! Either way the operation undoes exactly itself and its unit stays open.
//!
//! At unit commit, [`EventListener::at_commit`] runs once, which is where
//! deferred rules are evaluated (§5.2.2.1).

use crate::database::Database;
use crate::error::DbResult;
use crate::value::Value;
use prometheus_storage::Oid;

/// A structural mutation of the database.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An object of `class` is being / has been created.
    ObjectCreated { oid: Oid, class: String },
    /// Attribute `attr` of an object changes from `old` to `new`.
    ObjectUpdated {
        oid: Oid,
        class: String,
        attr: String,
        old: Value,
        new: Value,
    },
    /// An object is being / has been deleted.
    ObjectDeleted { oid: Oid, class: String },
    /// A relationship instance is being / has been created.
    RelCreated {
        oid: Oid,
        class: String,
        origin: Oid,
        destination: Oid,
    },
    /// An attribute of a relationship instance changes.
    RelUpdated {
        oid: Oid,
        class: String,
        attr: String,
        old: Value,
        new: Value,
    },
    /// A relationship instance is being / has been deleted.
    RelDeleted {
        oid: Oid,
        class: String,
        origin: Oid,
        destination: Oid,
    },
    /// An edge joined a classification.
    ClassificationEdgeAdded { classification: Oid, rel: Oid },
    /// An edge left a classification.
    ClassificationEdgeRemoved { classification: Oid, rel: Oid },
}

impl Event {
    /// The class name the event concerns, if any.
    pub fn class(&self) -> Option<&str> {
        match self {
            Event::ObjectCreated { class, .. }
            | Event::ObjectUpdated { class, .. }
            | Event::ObjectDeleted { class, .. }
            | Event::RelCreated { class, .. }
            | Event::RelUpdated { class, .. }
            | Event::RelDeleted { class, .. } => Some(class),
            _ => None,
        }
    }

    /// Primary OID the event concerns.
    pub fn subject(&self) -> Oid {
        match self {
            Event::ObjectCreated { oid, .. }
            | Event::ObjectUpdated { oid, .. }
            | Event::ObjectDeleted { oid, .. }
            | Event::RelCreated { oid, .. }
            | Event::RelUpdated { oid, .. }
            | Event::RelDeleted { oid, .. } => *oid,
            Event::ClassificationEdgeAdded { rel, .. }
            | Event::ClassificationEdgeRemoved { rel, .. } => *rel,
        }
    }
}

/// A subscriber to database events. The rule engine implements this.
///
/// Listener callbacks receive the database itself so that rule conditions and
/// actions can query and mutate it; the database takes care not to hold
/// internal locks across these calls.
pub trait EventListener: Send + Sync {
    /// Called before the mutation is applied. Returning an error vetoes it.
    fn before(&self, _db: &Database, _event: &Event) -> DbResult<()> {
        Ok(())
    }

    /// Called after the mutation is applied. Returning an error fails the
    /// operation: everything it did is undone, and the unit it ran in stays
    /// open.
    fn after(&self, _db: &Database, _event: &Event) -> DbResult<()> {
        Ok(())
    }

    /// Called when a unit of work commits, with every event it produced.
    /// Returning an error rolls the unit back (deferred constraints).
    fn at_commit(&self, _db: &Database, _events: &[Event]) -> DbResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let e = Event::ObjectCreated {
            oid: Oid::from_raw(4),
            class: "CT".into(),
        };
        assert_eq!(e.class(), Some("CT"));
        assert_eq!(e.subject(), Oid::from_raw(4));

        let e = Event::ClassificationEdgeAdded {
            classification: Oid::from_raw(1),
            rel: Oid::from_raw(2),
        };
        assert_eq!(e.class(), None);
        assert_eq!(e.subject(), Oid::from_raw(2));
    }
}
