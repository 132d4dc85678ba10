//! The rule engine (§5.2.2, Figures 30–31): scheduling, evaluation and
//! error handling.
//!
//! The engine is an [`EventListener`] plugged into the object layer:
//!
//! * `before` — immediate **pre-conditions** on update/delete events (the
//!   subject still exists and `old`/`new` are in scope); a violation vetoes
//!   the operation before it applies;
//! * `after` — all other immediate rules, including pre-conditions attached
//!   to creation events (the subject only exists after the insert). A
//!   violation here fails the operation just the same: the operation runs
//!   behind a rollback point in its unit, which the failure restores;
//! * `at_commit` — **deferred** rules, evaluated over every event of the
//!   unit in priority order (§5.2.2.1); the first aborting violation rolls
//!   the whole unit back.
//!
//! So an immediate violation undoes exactly the operation it is found in
//! and leaves its unit open, and a deferred one undoes the unit.
//!
//! Violations are handled per the rule's [`Action`]: abort, warn (collected
//! on the engine), or ask an interactive [`ViolationHandler`] (§5.2.2.2).
//!
//! The rule set is not the engine's: it is the `KS_META/"rules"` record of
//! the state the dispatching database reads — the bound unit's overlay, or
//! else the published image. A rule change stages that record in the
//! caller's unit like any write, so commit publishes it, abort drops it and
//! a reopen finds it; a dispatch parses each record it reads once.

use crate::rule::{Action, Rule, RuleKind, Timing};
use parking_lot::{Mutex, RwLock};
use prometheus_object::index::KS_META;
use prometheus_object::{Database, DbError, DbResult, Event, EventListener, Reader, Value};
use prometheus_pool::eval::Env;
use prometheus_pool::Expr;
use prometheus_storage::{codec::from_bytes, Bytes};
use std::sync::Arc;

/// Decides whether an interactively-handled violation is accepted.
pub trait ViolationHandler: Send + Sync {
    /// Return `true` to accept (ignore) the violation, `false` to abort.
    fn accept(&self, rule: &Rule, detail: &str) -> bool;
}

/// Key of the rules record (`Vec<Rule>`) in the meta keyspace.
const META_RULES: &[u8] = b"rules";

/// A rule held with its conditions parsed, once per record that holds it.
struct Held {
    rule: Rule,
    applicability: Option<Arc<Expr>>,
    constraint: Arc<Expr>,
}

impl Held {
    fn parse(rule: Rule) -> DbResult<Held> {
        let parse = |src: &str| prometheus_pool::parse_expr(src).map(Arc::new);
        Ok(Held {
            applicability: rule.applicability.as_deref().map(parse).transpose()?,
            constraint: parse(&rule.constraint)?,
            rule,
        })
    }
}

/// The rule engine: how rules are dispatched, not which rules there are.
pub struct RuleEngine {
    /// The last rules record parsed, keyed by the identity of its bytes as
    /// `read::MetaMemo` keys the schema's: the memo holds a clone of them,
    /// so no other record can take their address while it does.
    parsed: RwLock<(Option<Bytes>, Arc<[Held]>)>,
    warnings: Mutex<Vec<String>>,
    handler: RwLock<Option<Arc<dyn ViolationHandler>>>,
    recorder: RwLock<prometheus_trace::Recorder>,
}

impl Default for RuleEngine {
    fn default() -> Self {
        RuleEngine::new()
    }
}

impl RuleEngine {
    /// An engine that has parsed nothing yet; [`RuleEngine::install`]
    /// attaches one to a database.
    pub fn new() -> Self {
        RuleEngine {
            parsed: RwLock::new((None, Arc::new([]))),
            warnings: Mutex::new(Vec::new()),
            handler: RwLock::new(None),
            recorder: RwLock::new(prometheus_trace::Recorder::disabled()),
        }
    }

    /// Install the span recorder used for rule-firing spans (one `rule`
    /// span per dispatch that actually checked at least one rule).
    pub fn set_recorder(&self, recorder: prometheus_trace::Recorder) {
        *self.recorder.write() = recorder;
    }

    /// Create an engine and attach it to `db`, failing if `db`'s rules
    /// record does not parse.
    pub fn install(db: &Database) -> DbResult<Arc<RuleEngine>> {
        let engine = Arc::new(RuleEngine::new());
        engine.rule_set(db)?;
        db.add_listener(engine.clone());
        Ok(engine)
    }

    /// The rules `db` reads, parsed once per record.
    fn rule_set(&self, db: &Database) -> DbResult<Arc<[Held]>> {
        let record = db.raw_kv_get(KS_META, META_RULES);
        let id = |record: &Option<Bytes>| record.as_ref().map(|b| (b.as_ptr(), b.len()));
        let parsed = self.parsed.read();
        if id(&parsed.0) == id(&record) {
            return Ok(Arc::clone(&parsed.1));
        }
        drop(parsed);
        let rules: Vec<Rule> = record.as_ref().map_or(Ok(Vec::new()), |b| from_bytes(b))?;
        let set: Arc<[Held]> = DbResult::from_iter(rules.into_iter().map(Held::parse))?;
        *self.parsed.write() = (record, Arc::clone(&set));
        Ok(set)
    }

    /// Add a rule to the rules `db` reads. Its expressions are parsed
    /// eagerly so syntax errors surface at definition time (like PCL rule
    /// creation, Figure 32), as does a name already taken.
    pub fn add_rule(&self, db: &Database, rule: Rule) -> DbResult<()> {
        let rule = Held::parse(rule)?.rule;
        db.revise_record(META_RULES, |rules: &mut Vec<Rule>| {
            if rules.iter().any(|r| r.name == rule.name) {
                let name = &rule.name;
                return Err(DbError::Schema(format!("rule '{name}' already defined")));
            }
            rules.push(rule);
            Ok(true)
        })
        .map(drop)
    }

    /// Remove a rule by name; returns whether it existed.
    pub fn remove_rule(&self, db: &Database, name: &str) -> DbResult<bool> {
        db.revise_record(META_RULES, |rules: &mut Vec<Rule>| {
            let before = rules.len();
            rules.retain(|r| r.name != name);
            Ok(rules.len() != before)
        })
    }

    /// Enable/disable a rule without removing it; returns whether it exists.
    pub fn set_enabled(&self, db: &Database, name: &str, enabled: bool) -> DbResult<bool> {
        db.revise_record(META_RULES, |rules: &mut Vec<Rule>| {
            let rule = rules.iter_mut().find(|r| r.name == name);
            Ok(rule.map(|r| r.enabled = enabled).is_some())
        })
    }

    /// The rules `db` reads, in definition order.
    pub fn rules(&self, db: &Database) -> DbResult<Vec<Rule>> {
        Ok(self.rule_set(db)?.iter().map(|h| h.rule.clone()).collect())
    }

    /// Warnings accumulated by `Action::Warn` violations.
    pub fn warnings(&self) -> Vec<String> {
        self.warnings.lock().clone()
    }

    /// Clear accumulated warnings.
    pub fn clear_warnings(&self) {
        self.warnings.lock().clear();
    }

    /// Register the interactive violation handler.
    pub fn set_handler(&self, handler: Arc<dyn ViolationHandler>) {
        *self.handler.write() = Some(handler);
    }

    /// Build the condition environment for an event (§5.2.1.2's bindings).
    fn env_for(event: &Event) -> Env {
        let mut env = Env::empty();
        env.bind("self", Value::Ref(event.subject()));
        match event {
            Event::ObjectUpdated { attr, old, new, .. }
            | Event::RelUpdated { attr, old, new, .. } => {
                env.bind("attr", Value::Str(attr.clone()));
                env.bind("old", old.clone());
                env.bind("new", new.clone());
            }
            Event::RelCreated {
                origin,
                destination,
                ..
            }
            | Event::RelDeleted {
                origin,
                destination,
                ..
            } => {
                env.bind("origin", Value::Ref(*origin));
                env.bind("destination", Value::Ref(*destination));
            }
            Event::ClassificationEdgeAdded {
                classification,
                rel,
            }
            | Event::ClassificationEdgeRemoved {
                classification,
                rel,
            } => {
                env.bind("classification", Value::Ref(*classification));
                env.bind("self", Value::Ref(*rel));
            }
            _ => {}
        }
        env
    }

    /// Evaluate one rule against one event; returns the violation error if
    /// the constraint fails and the action demands an abort.
    fn check(&self, db: &Database, held: &Held, event: &Event) -> DbResult<()> {
        let env = Self::env_for(event);
        if let Some(applicability) = &held.applicability {
            let applicable = prometheus_pool::eval::eval_expr(db, applicability, &env, None)?;
            if !applicable.is_truthy() {
                return Ok(());
            }
        }
        let holds = prometheus_pool::eval::eval_expr(db, &held.constraint, &env, None)?;
        if holds.is_truthy() {
            return Ok(());
        }
        let rule = &held.rule;
        let detail = format!("{}: {}", rule.name, rule.message);
        match rule.on_violation {
            Action::Warn => {
                self.warnings.lock().push(detail);
                Ok(())
            }
            Action::Ask => {
                let handler = self.handler.read().clone();
                match handler {
                    Some(h) if h.accept(rule, &detail) => {
                        self.warnings.lock().push(format!("accepted: {detail}"));
                        Ok(())
                    }
                    _ => Err(DbError::ConstraintViolation {
                        rule: rule.name.clone(),
                        reason: rule.message.clone(),
                    }),
                }
            }
            Action::Abort => Err(DbError::ConstraintViolation {
                rule: rule.name.clone(),
                reason: rule.message.clone(),
            }),
        }
    }

    /// The enabled rules of `timing` that `event` fires, in definition
    /// order; `pre_only` keeps just the pre-conditions.
    fn matching<'a>(
        db: &'a Database,
        rules: &'a [Held],
        event: &'a Event,
        timing: Timing,
        pre_only: bool,
    ) -> impl Iterator<Item = &'a Held> + 'a {
        rules.iter().filter(move |h| {
            let r = &h.rule;
            r.enabled
                && r.timing == timing
                && (!pre_only || r.kind == RuleKind::PreCondition)
                && r.events.iter().any(|spec| spec.matches(db, event))
        })
    }
}

impl EventListener for RuleEngine {
    fn before(&self, db: &Database, event: &Event) -> DbResult<()> {
        // Pre-conditions where the subject exists before the change: updates
        // and deletions. (Creation pre-conditions run in `after` — see the
        // module docs.)
        let applicable = matches!(
            event,
            Event::ObjectUpdated { .. }
                | Event::RelUpdated { .. }
                | Event::ObjectDeleted { .. }
                | Event::RelDeleted { .. }
        );
        if !applicable {
            return Ok(());
        }
        let rules = self.rule_set(db)?;
        for held in Self::matching(db, &rules, event, Timing::Immediate, true) {
            self.check(db, held, event)?;
        }
        Ok(())
    }

    fn after(&self, db: &Database, event: &Event) -> DbResult<()> {
        // Deletions cannot evaluate `self` afterwards, and their
        // pre-conditions ran in `before` (use those for deletion
        // constraints).
        if matches!(
            event,
            Event::ObjectDeleted { .. } | Event::RelDeleted { .. }
        ) {
            return Ok(());
        }
        let creation = matches!(
            event,
            Event::ObjectCreated { .. } | Event::RelCreated { .. }
        );
        let rules = self.rule_set(db)?;
        // One pass: creation pre-conditions (the subject exists now) are
        // checked as they are found, the remaining immediate rules after
        // them.
        let mut rest = Vec::new();
        for held in Self::matching(db, &rules, event, Timing::Immediate, false) {
            if held.rule.kind != RuleKind::PreCondition {
                rest.push(held);
            } else if creation {
                self.check(db, held, event)?;
            }
        }
        for held in rest {
            self.check(db, held, event)?;
        }
        Ok(())
    }

    fn at_commit(&self, db: &Database, events: &[Event]) -> DbResult<()> {
        let span = self.recorder.read().span(prometheus_trace::Stage::Rule);
        let mut checked = 0u64;
        let result = self.at_commit_counted(db, events, &mut checked);
        if checked > 0 {
            span.finish(checked, events.len() as u64);
        } else {
            span.cancel();
        }
        result
    }
}

impl RuleEngine {
    /// [`EventListener::at_commit`] body, tallying constraint checks into
    /// `checked` for the rule-firing span.
    fn at_commit_counted(
        &self,
        db: &Database,
        events: &[Event],
        checked: &mut u64,
    ) -> DbResult<()> {
        let rules = self.rule_set(db)?;
        // Composite-event rules (§5.2.1.1): fire once per unit when every
        // spec matched some event of the unit.
        for held in rules.iter().filter(|h| h.rule.enabled && h.rule.all_events) {
            let rule = &held.rule;
            let all_matched = rule
                .events
                .iter()
                .all(|spec| events.iter().any(|e| spec.matches(db, e)));
            if !all_matched {
                continue;
            }
            let subject = rule
                .events
                .first()
                .and_then(|spec| events.iter().find(|e| spec.matches(db, e)));
            if let Some(event) = subject {
                if db.exists(event.subject()) {
                    *checked += 1;
                    self.check(db, held, event)?;
                }
            }
        }
        // Collect matching (rule, event) pairs, schedule by priority
        // (§5.2.2.1), then evaluate.
        let mut scheduled: Vec<(&Held, &Event)> = Vec::new();
        for event in events {
            if matches!(
                event,
                Event::ObjectDeleted { .. } | Event::RelDeleted { .. }
            ) {
                continue; // subject gone; deferred deletion checks are
                          // expressed as rules over surviving objects
            }
            for held in Self::matching(db, &rules, event, Timing::Deferred, false) {
                if held.rule.all_events {
                    continue; // handled above, once per unit
                }
                scheduled.push((held, event));
            }
        }
        scheduled.sort_by_key(|(h, _)| std::cmp::Reverse(h.rule.priority));
        for (held, event) in scheduled {
            // The subject may have been deleted later in the unit.
            if !db.exists(event.subject()) {
                continue;
            }
            *checked += 1;
            self.check(db, held, event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prometheus_object::{
        shard_routing, AttrDef, ClassDef, RelClassDef, ShardedStore, StoreOptions, Type,
    };

    fn db_with_engine() -> (Database, Arc<RuleEngine>) {
        let path = std::env::temp_dir().join(format!(
            "rules-engine-{}-{:?}-{}.log",
            std::process::id(),
            std::thread::current().id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_file(&path);
        let db = open_at(&path);
        db.define_class(
            ClassDef::new("CT")
                .attr(AttrDef::required("name", Type::Str))
                .attr(AttrDef::optional("rank", Type::Str)),
        )
        .unwrap();
        db.define_relationship(RelClassDef::association("Circ", "CT", "CT"))
            .unwrap();
        let engine = RuleEngine::install(&db).unwrap();
        (db, engine)
    }

    fn open_at(path: &std::path::Path) -> Database {
        let store = ShardedStore::open_with(
            path,
            StoreOptions {
                sync_on_commit: false,
            },
            1,
            shard_routing(),
        )
        .unwrap();
        Database::open_sharded(Arc::new(store)).unwrap()
    }

    /// Close `db` and open its store again, with a new engine installed.
    fn reopen(db: Database) -> (Database, Arc<RuleEngine>) {
        let path = db.store().path().to_path_buf();
        drop(db);
        let db = open_at(&path);
        let engine = RuleEngine::install(&db).unwrap();
        (db, engine)
    }

    fn attrs(pairs: &[(&str, &str)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect()
    }

    #[test]
    fn immediate_invariant_blocks_creation() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant("genus-capital", "CT", "self.name != \"bad\"", "name is bad")
                    .immediate(),
            )
            .unwrap();
        let err = db
            .create_object("CT", attrs(&[("name", "bad")]))
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        assert!(
            db.extent("CT", false).unwrap().is_empty(),
            "creation rolled back"
        );
        assert!(db.create_object("CT", attrs(&[("name", "good")])).is_ok());
    }

    #[test]
    fn pre_condition_on_update_sees_old_and_new() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::pre_update(
                    "rank-immutable-once-set",
                    "CT",
                    "rank",
                    "old = null or old = new",
                    "rank cannot change once published",
                ),
            )
            .unwrap();
        let ct = db.create_object("CT", attrs(&[("name", "Apium")])).unwrap();
        db.set_attr(ct, "rank", "Genus").unwrap(); // old = null: allowed
        let err = db.set_attr(ct, "rank", "Species").unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        assert_eq!(db.object(ct).unwrap().attr("rank"), Value::from("Genus"));
    }

    #[test]
    fn deferred_rule_rolls_back_whole_unit() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant("needs-rank", "CT", "self.rank != null", "rank required"),
            )
            .unwrap();
        // A unit may pass through invalid intermediate states...
        let token = db.begin_unit();
        let ct = db.create_object("CT", attrs(&[("name", "Apium")])).unwrap();
        db.set_attr(ct, "rank", "Genus").unwrap();
        db.commit_unit(token).unwrap(); // valid at commit
        assert!(db.exists(ct));
        // ...but an invalid final state aborts everything.
        let token = db.begin_unit();
        let bad = db
            .create_object("CT", attrs(&[("name", "NoRank")]))
            .unwrap();
        let err = db.commit_unit(token).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        assert!(!db.exists(bad));
    }

    #[test]
    fn applicability_gates_the_constraint() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant(
                    "genus-needs-rank-attr",
                    "CT",
                    "self.rank = \"Genus\"",
                    "only genera allowed here",
                )
                .applicable_when("self.name like \"G%\"")
                .immediate(),
            )
            .unwrap();
        // Name doesn't match the applicability condition: rule silent.
        assert!(db.create_object("CT", attrs(&[("name", "Apium")])).is_ok());
        // Name matches: constraint enforced.
        assert!(db.create_object("CT", attrs(&[("name", "Gagea")])).is_err());
        assert!(db
            .create_object("CT", attrs(&[("name", "Gagea"), ("rank", "Genus")]))
            .is_ok());
    }

    #[test]
    fn warn_action_collects_instead_of_aborting() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant("advisory", "CT", "self.rank != null", "rank advisable")
                    .immediate()
                    .warn_only(),
            )
            .unwrap();
        let ct = db.create_object("CT", attrs(&[("name", "Apium")])).unwrap();
        assert!(db.exists(ct));
        let warnings = engine.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("advisory"));
        engine.clear_warnings();
        assert!(engine.warnings().is_empty());
    }

    struct AlwaysAccept;
    impl ViolationHandler for AlwaysAccept {
        fn accept(&self, _rule: &Rule, _detail: &str) -> bool {
            true
        }
    }
    struct AlwaysReject;
    impl ViolationHandler for AlwaysReject {
        fn accept(&self, _rule: &Rule, _detail: &str) -> bool {
            false
        }
    }

    #[test]
    fn interactive_rules_consult_the_handler() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant("ask-me", "CT", "self.rank != null", "no rank")
                    .immediate()
                    .interactive(),
            )
            .unwrap();
        // No handler: treated as abort.
        assert!(db.create_object("CT", attrs(&[("name", "A")])).is_err());
        // Accepting handler: operation proceeds, acceptance recorded.
        engine.set_handler(Arc::new(AlwaysAccept));
        assert!(db.create_object("CT", attrs(&[("name", "B")])).is_ok());
        assert!(engine.warnings().iter().any(|w| w.starts_with("accepted:")));
        // Rejecting handler: abort again.
        engine.set_handler(Arc::new(AlwaysReject));
        assert!(db.create_object("CT", attrs(&[("name", "C")])).is_err());
    }

    #[test]
    fn relationship_rule_sees_origin_and_destination() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::on_link(
                    "no-self-citation",
                    "Circ",
                    "not (origin = destination)",
                    "an edge may not loop",
                ),
            )
            .unwrap();
        let a = db.create_object("CT", attrs(&[("name", "A")])).unwrap();
        let b = db.create_object("CT", attrs(&[("name", "B")])).unwrap();
        assert!(db.create_relationship("Circ", a, b, Vec::new()).is_ok());
        let err = db
            .create_relationship("Circ", a, a, Vec::new())
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
    }

    #[test]
    fn rule_management() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant("r1", "CT", "self.rank != null", "m").immediate(),
            )
            .unwrap();
        assert!(engine
            .add_rule(&db, Rule::invariant("r1", "CT", "true", ""))
            .is_err());
        assert!(db.create_object("CT", attrs(&[("name", "x")])).is_err());
        // Disable: passes.
        assert!(engine.set_enabled(&db, "r1", false).unwrap());
        assert!(db.create_object("CT", attrs(&[("name", "x")])).is_ok());
        // Re-enable and remove.
        assert!(engine.set_enabled(&db, "r1", true).unwrap());
        assert!(engine.remove_rule(&db, "r1").unwrap());
        assert!(!engine.remove_rule(&db, "r1").unwrap());
        assert!(db.create_object("CT", attrs(&[("name", "y")])).is_ok());
    }

    #[test]
    fn bad_expressions_rejected_at_definition_time() {
        let (db, engine) = db_with_engine();
        let err = engine
            .add_rule(&db, Rule::invariant("broken", "CT", "self.rank =", "m"))
            .unwrap_err();
        assert!(matches!(err, DbError::Query(_)));
    }

    #[test]
    fn rules_persist_and_reload() {
        let (db, engine) = db_with_engine();
        engine
            .add_rule(
                &db,
                Rule::invariant("persisted", "CT", "self.name != \"bad\"", "m")
                    .applicable_when("self.rank = \"Genus\""),
            )
            .unwrap();
        let (db, fresh) = reopen(db);
        let rules = fresh.rules(&db).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].name, "persisted");
        // The reloaded rule fires with both of its conditions: the reopened
        // database's engine vetoes a violating create and lets one it does
        // not apply to through.
        let err = db
            .create_object("CT", attrs(&[("name", "bad"), ("rank", "Genus")]))
            .unwrap_err();
        assert!(
            matches!(err, DbError::ConstraintViolation { .. }),
            "{err:?}"
        );
        assert!(db.create_object("CT", attrs(&[("name", "bad")])).is_ok());
        // Removed from the record, it no longer fires.
        assert!(fresh.remove_rule(&db, "persisted").unwrap());
        assert!(db
            .create_object("CT", attrs(&[("name", "bad"), ("rank", "Genus")]))
            .is_ok());
    }

    /// A rule is a write of the unit it is added in: an abort takes it back
    /// with the rest of the unit, and a reopen does not find it.
    #[test]
    fn a_rule_added_in_an_aborted_unit_is_gone() {
        let (db, engine) = db_with_engine();
        let token = db.begin_unit();
        engine
            .add_rule(
                &db,
                Rule::invariant("what-if", "CT", "self.name != \"bad\"", "m").immediate(),
            )
            .unwrap();
        assert_eq!(engine.rules(&db).unwrap().len(), 1, "the unit reads it");
        db.abort_unit(token);
        assert!(engine.rules(&db).unwrap().is_empty());
        assert!(db.create_object("CT", attrs(&[("name", "bad")])).is_ok());
        let (db, engine) = reopen(db);
        assert!(engine.rules(&db).unwrap().is_empty());
        assert!(db.create_object("CT", attrs(&[("name", "bad")])).is_ok());
    }

    #[test]
    fn composite_all_events_rule_fires_only_when_every_spec_matched() {
        use crate::event::EventSpec;
        let (db, engine) = db_with_engine();
        // Constraint: any unit that BOTH creates a CT and creates a Circ
        // relationship must give the created CT a rank.
        engine
            .add_rule(
                &db,
                Rule::invariant(
                    "paired",
                    "CT",
                    "self.rank != null",
                    "rank required when linking",
                )
                .when_all_events(vec![
                    EventSpec::ObjectCreated {
                        class: Some("CT".into()),
                    },
                    EventSpec::RelCreated {
                        class: Some("Circ".into()),
                    },
                ]),
            )
            .unwrap();
        // Creating a CT alone (no relationship event): rule silent.
        let lone = db.create_object("CT", attrs(&[("name", "alone")])).unwrap();
        assert!(db.exists(lone));
        // A unit with both events and no rank: violation, rolled back.
        let token = db.begin_unit();
        let ct = db.create_object("CT", attrs(&[("name", "pair")])).unwrap();
        db.create_relationship("Circ", ct, lone, Vec::new())
            .unwrap();
        assert!(db.commit_unit(token).is_err());
        assert!(!db.exists(ct));
        // Same unit shape with a rank: passes.
        let token = db.begin_unit();
        let ct = db
            .create_object("CT", attrs(&[("name", "pair"), ("rank", "Genus")]))
            .unwrap();
        db.create_relationship("Circ", ct, lone, Vec::new())
            .unwrap();
        db.commit_unit(token).unwrap();
        assert!(db.exists(ct));
    }

    #[test]
    fn deferred_priority_orders_checks() {
        let (db, engine) = db_with_engine();
        // The high-priority rule aborts first even though added second.
        engine
            .add_rule(
                &db,
                Rule::invariant("low", "CT", "self.rank != null", "low-message"),
            )
            .unwrap();
        engine
            .add_rule(
                &db,
                Rule::invariant("high", "CT", "self.name != \"X\"", "high-message")
                    .with_priority(10),
            )
            .unwrap();
        let err = db.create_object("CT", attrs(&[("name", "X")])).unwrap_err();
        match err {
            DbError::ConstraintViolation { rule, .. } => assert_eq!(rule, "high"),
            other => panic!("unexpected {other}"),
        }
    }
}
