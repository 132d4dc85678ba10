//! Rule definitions (§5.2.1).

use crate::event::EventSpec;
use serde::{Deserialize, Serialize};

/// When the rule's constraint is checked relative to the triggering
/// operation (§5.2.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Timing {
    /// Inline with the operation: pre-conditions check *before* it applies,
    /// all other kinds immediately after.
    Immediate,
    /// At unit-of-work commit, over all events the unit produced.
    Deferred,
}

/// The four rule flavours of §5.2.1.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleKind {
    /// Must hold whenever the rule fires (§5.2.1.4.1).
    Invariant,
    /// Checked before the operation applies; a violation vetoes it
    /// (§5.2.1.4.2).
    PreCondition,
    /// Checked after the operation applies (§5.2.1.4.3).
    PostCondition,
    /// Relationship-centred rule (§5.2.1.4.4): fired by relationship events,
    /// with `origin` and `destination` bound in the condition environment.
    RelationshipRule,
}

/// What happens when the constraint is violated (§5.2.1.3, §5.2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Fail what the violation is found in (automatic transaction
    /// abortion): an immediate rule fails the operation, which undoes
    /// exactly itself and leaves its unit open; a deferred rule rolls the
    /// whole unit back at commit.
    Abort,
    /// Record a warning and continue.
    Warn,
    /// Ask the registered interactive handler whether to accept the
    /// violation (interactive rules, §5.3; taxonomists often need to
    /// override the letter of the ICBN).
    Ask,
}

/// One rule.
///
/// Both `applicability` and `constraint` are POOL expressions, evaluated
/// with these bindings:
///
/// * `self` — the event's subject (the object, or the relationship instance);
/// * on updates: `attr` (the attribute name), `old`, `new`;
/// * on relationship events: `origin`, `destination`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    pub name: String,
    pub kind: RuleKind,
    pub events: Vec<EventSpec>,
    pub timing: Timing,
    /// Condition of applicability (§5.2.1.2): when it evaluates falsy the
    /// rule simply does not apply — distinct from a violated constraint.
    pub applicability: Option<String>,
    /// The constraint that must evaluate truthy.
    pub constraint: String,
    pub on_violation: Action,
    /// Higher priority runs first among deferred rules (§5.2.2.1 scheduling).
    pub priority: i32,
    pub enabled: bool,
    /// Human message reported on violation.
    pub message: String,
    /// Composite-event conjunction (§5.2.1.1): when `true` (deferred rules
    /// only), the rule fires once per unit of work, and only if **every**
    /// [`EventSpec`] in `events` matched at least one event the unit
    /// produced. The condition environment binds `self` to the subject of
    /// the *first* matching event.
    pub all_events: bool,
}

impl Rule {
    /// A deferred invariant over a class, the most common rule shape.
    pub fn invariant(name: &str, class: &str, constraint: &str, message: &str) -> Rule {
        Rule {
            name: name.to_string(),
            kind: RuleKind::Invariant,
            events: vec![EventSpec::any_object_change(class)],
            timing: Timing::Deferred,
            applicability: None,
            constraint: constraint.to_string(),
            on_violation: Action::Abort,
            priority: 0,
            enabled: true,
            message: message.to_string(),
            all_events: false,
        }
    }

    /// An immediate pre-condition on object creation.
    pub fn pre_create(name: &str, class: &str, constraint: &str, message: &str) -> Rule {
        Rule {
            name: name.to_string(),
            kind: RuleKind::PreCondition,
            events: vec![EventSpec::ObjectCreated {
                class: Some(class.to_string()),
            }],
            timing: Timing::Immediate,
            applicability: None,
            constraint: constraint.to_string(),
            on_violation: Action::Abort,
            priority: 0,
            enabled: true,
            message: message.to_string(),
            all_events: false,
        }
    }

    /// An immediate pre-condition on attribute update.
    pub fn pre_update(
        name: &str,
        class: &str,
        attr: &str,
        constraint: &str,
        message: &str,
    ) -> Rule {
        Rule {
            name: name.to_string(),
            kind: RuleKind::PreCondition,
            events: vec![EventSpec::ObjectUpdated {
                class: Some(class.to_string()),
                attr: Some(attr.to_string()),
            }],
            timing: Timing::Immediate,
            applicability: None,
            constraint: constraint.to_string(),
            on_violation: Action::Abort,
            priority: 0,
            enabled: true,
            message: message.to_string(),
            all_events: false,
        }
    }

    /// A relationship rule fired when an instance of `rel_class` is created
    /// (§5.2.1.4.4) — checked immediately after creation.
    pub fn on_link(name: &str, rel_class: &str, constraint: &str, message: &str) -> Rule {
        Rule {
            name: name.to_string(),
            kind: RuleKind::RelationshipRule,
            events: vec![EventSpec::RelCreated {
                class: Some(rel_class.to_string()),
            }],
            timing: Timing::Immediate,
            applicability: None,
            constraint: constraint.to_string(),
            on_violation: Action::Abort,
            priority: 0,
            enabled: true,
            message: message.to_string(),
            all_events: false,
        }
    }

    /// Builder-style adjustments.
    pub fn applicable_when(mut self, expr: &str) -> Rule {
        self.applicability = Some(expr.to_string());
        self
    }
    pub fn deferred(mut self) -> Rule {
        self.timing = Timing::Deferred;
        self
    }
    pub fn immediate(mut self) -> Rule {
        self.timing = Timing::Immediate;
        self
    }
    pub fn warn_only(mut self) -> Rule {
        self.on_violation = Action::Warn;
        self
    }
    pub fn interactive(mut self) -> Rule {
        self.on_violation = Action::Ask;
        self
    }
    pub fn with_priority(mut self, p: i32) -> Rule {
        self.priority = p;
        self
    }
    /// Make this a composite-event rule: deferred, firing only when every
    /// event spec matched within the unit of work.
    pub fn when_all_events(mut self, events: Vec<crate::event::EventSpec>) -> Rule {
        self.events = events;
        self.all_events = true;
        self.timing = Timing::Deferred;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let r = Rule::invariant("inv", "CT", "self.rank != null", "rank required");
        assert_eq!(r.kind, RuleKind::Invariant);
        assert_eq!(r.timing, Timing::Deferred);
        assert_eq!(r.on_violation, Action::Abort);

        let r = Rule::pre_create("pc", "NT", "self.name != null", "").immediate();
        assert_eq!(r.kind, RuleKind::PreCondition);
        assert_eq!(r.timing, Timing::Immediate);

        let r = Rule::on_link("rr", "Circumscribes", "true", "")
            .warn_only()
            .with_priority(5);
        assert_eq!(r.kind, RuleKind::RelationshipRule);
        assert_eq!(r.on_violation, Action::Warn);
        assert_eq!(r.priority, 5);

        let r = Rule::invariant("a", "CT", "true", "").applicable_when("self.rank = \"Genus\"");
        assert_eq!(r.applicability.as_deref(), Some("self.rank = \"Genus\""));
    }

    #[test]
    fn rules_serde_round_trip() {
        let r = Rule::invariant("inv", "CT", "self.rank != null", "msg").interactive();
        let bytes = prometheus_storage::codec::to_bytes(&r).unwrap();
        let back: Rule = prometheus_storage::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }
}
