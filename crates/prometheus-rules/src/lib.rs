//! # prometheus-rules
//!
//! The Prometheus rule/constraint mechanism (thesis chapter 5.2).
//!
//! A rule is an ECA triple extended with a *condition of applicability*
//! (§5.2.1.2): **event** — which structural mutations wake the rule up;
//! **condition of applicability** — a POOL expression deciding whether the
//! rule is relevant to this particular event; **constraint** — a POOL
//! expression that must hold; and an **action** taken on violation
//! (§5.2.1.3): abort the unit of work, warn, or ask an interactive handler
//! (§5.2.2.2 error handling).
//!
//! Rules are scheduled **immediately** (inline with the triggering
//! operation) or **deferred** to unit commit (§5.2.2.1), and come in the
//! four flavours of §5.2.1.4: invariants, pre-conditions, post-conditions
//! and relationship rules.
//!
//! Rules live in the database, not in the engine: the rule set is the
//! `KS_META/"rules"` record of the state a dispatch reads, and
//! [`RuleEngine::add_rule`], [`RuleEngine::remove_rule`] and
//! [`RuleEngine::set_enabled`] stage it in the caller's unit of work, so a
//! rule change commits, aborts, persists and replicates with that unit.
//!
//! [`pcl`] implements PCL, the OCL-inspired surface syntax of §5.2.3, which
//! *translates into* ordinary Prometheus rules (Figure 25).

pub mod engine;
pub mod event;
pub mod pcl;
pub mod rule;

pub use engine::{RuleEngine, ViolationHandler};
pub use event::EventSpec;
pub use rule::{Action, Rule, RuleKind, Timing};
