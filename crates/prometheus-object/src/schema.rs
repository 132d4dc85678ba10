//! The Prometheus meta-model: classes and relationship classes.
//!
//! Mirrors thesis §4.2–§4.4. Ordinary classes are ODMG classes (attributes,
//! multiple inheritance rooted at `Object`). Relationship classes are classes
//! too — they may carry attributes and participate in inheritance — but add
//! an origin class, a destination class, a kind (aggregation/association)
//! and the built-in semantic attributes of §4.4.3:
//!
//! * **exclusivity** (Figure 15) — a destination object may participate in at
//!   most one instance of the relationship class;
//! * **sharability** (Figure 16) — whether a part may belong to several
//!   wholes at once;
//! * **lifetime dependency** — deleting the origin deletes a dependent,
//!   unshared destination;
//! * **constancy** — the instance's endpoints cannot change after creation;
//! * **attribute inheritance** (§4.4.5, ADAM-style roles) — listed attributes
//!   of the relationship become visible as attributes of the destination;
//! * **cardinality** on each side;
//! * **acyclicity** — aggregation hierarchies may not contain cycles.
//!
//! Illegal combinations (the thesis' Table 3) are rejected when the
//! relationship class is defined — see [`RelClassDef::validate_combination`].

use crate::error::{DbError, DbResult};
use crate::value::{Type, Value};
use prometheus_storage::codec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Name of the implicit root class every class inherits from (ODMG `Object`).
pub const OBJECT_CLASS: &str = "Object";
/// Name of the implicit root of all relationship classes.
pub const RELATIONSHIP_CLASS: &str = "Relationship";

/// An attribute declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrDef {
    pub name: String,
    pub ty: Type,
    /// May the attribute be `Null` / absent?
    pub optional: bool,
    /// Value used when the attribute is omitted at creation.
    pub default: Option<Value>,
    /// Maintain a secondary index over this attribute (index layer, §6.1.4).
    pub indexed: bool,
}

impl AttrDef {
    /// A required attribute of the given type.
    pub fn required(name: impl Into<String>, ty: Type) -> Self {
        AttrDef {
            name: name.into(),
            ty,
            optional: false,
            default: None,
            indexed: false,
        }
    }

    /// An optional attribute of the given type.
    pub fn optional(name: impl Into<String>, ty: Type) -> Self {
        AttrDef {
            name: name.into(),
            ty,
            optional: true,
            default: None,
            indexed: false,
        }
    }

    /// Builder-style: mark indexed.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }

    /// Builder-style: set a default value.
    pub fn with_default(mut self, v: impl Into<Value>) -> Self {
        self.default = Some(v.into());
        self
    }
}

/// An ordinary (non-relationship) class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDef {
    pub name: String,
    /// Direct superclasses; empty means `Object` only.
    pub supers: Vec<String>,
    pub attrs: Vec<AttrDef>,
    /// Abstract classes cannot be instantiated directly.
    pub is_abstract: bool,
}

impl ClassDef {
    /// Start defining a class.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            supers: Vec::new(),
            attrs: Vec::new(),
            is_abstract: false,
        }
    }

    /// Add a direct superclass.
    pub fn extends(mut self, sup: impl Into<String>) -> Self {
        self.supers.push(sup.into());
        self
    }

    /// Add an attribute.
    pub fn attr(mut self, attr: AttrDef) -> Self {
        self.attrs.push(attr);
        self
    }

    /// Mark abstract.
    pub fn abstract_class(mut self) -> Self {
        self.is_abstract = true;
        self
    }
}

/// Aggregation vs association (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RelKind {
    /// Whole–part semantics; participates in encapsulation, sharability and
    /// lifetime-dependency checks and is acyclic by default.
    Aggregation,
    /// General semantic link between independent objects.
    Association,
}

/// How many relationship instances of one class an object may participate in
/// on a given side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cardinality {
    pub min: u32,
    /// `None` means unbounded.
    pub max: Option<u32>,
}

impl Cardinality {
    /// Any number of participations, including none.
    pub const MANY: Cardinality = Cardinality { min: 0, max: None };
    /// Exactly one participation.
    pub const ONE: Cardinality = Cardinality {
        min: 1,
        max: Some(1),
    };
    /// Zero or one participation.
    pub const OPTIONAL: Cardinality = Cardinality {
        min: 0,
        max: Some(1),
    };

    /// At least `min` participations.
    pub fn at_least(min: u32) -> Self {
        Cardinality { min, max: None }
    }

    /// Whether `count` participations exceed the upper bound.
    pub fn exceeded_by(&self, count: u32) -> bool {
        matches!(self.max, Some(max) if count > max)
    }
}

/// A relationship class (§4.3): a class with endpoints and built-in
/// behavioural attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelClassDef {
    pub name: String,
    /// Direct relationship superclasses; empty means `Relationship` only.
    pub supers: Vec<String>,
    pub kind: RelKind,
    /// Class (or superclass) required of origin objects.
    pub origin_class: String,
    /// Class (or superclass) required of destination objects.
    pub destination_class: String,
    /// User attributes carried by each instance.
    pub attrs: Vec<AttrDef>,
    /// Built-in: destination participates in at most one instance (Fig. 15).
    pub exclusive: bool,
    /// Built-in: a part may belong to several wholes (Fig. 16). Only
    /// meaningful for aggregations; associations are always sharable.
    pub sharable: bool,
    /// Built-in: destination's lifetime depends on the origin.
    pub dependent: bool,
    /// Built-in: endpoints may not be changed after creation.
    pub constant: bool,
    /// Built-in: instances of this class may not form directed cycles.
    pub acyclic: bool,
    /// Attribute names whose values are inherited by the destination object
    /// (§4.4.5). Must name attributes declared on this relationship class.
    pub inheritable_attrs: Vec<String>,
    /// How many instances each origin object may have.
    pub origin_card: Cardinality,
    /// How many instances each destination object may have.
    pub destination_card: Cardinality,
}

impl RelClassDef {
    /// Start defining an association between two classes.
    pub fn association(
        name: impl Into<String>,
        origin: impl Into<String>,
        destination: impl Into<String>,
    ) -> Self {
        RelClassDef {
            name: name.into(),
            supers: Vec::new(),
            kind: RelKind::Association,
            origin_class: origin.into(),
            destination_class: destination.into(),
            attrs: Vec::new(),
            exclusive: false,
            sharable: true,
            dependent: false,
            constant: false,
            acyclic: false,
            inheritable_attrs: Vec::new(),
            origin_card: Cardinality::MANY,
            destination_card: Cardinality::MANY,
        }
    }

    /// Start defining an aggregation (whole–part) between two classes.
    /// Aggregations default to non-sharable and acyclic, per §4.4.1.
    pub fn aggregation(
        name: impl Into<String>,
        origin: impl Into<String>,
        destination: impl Into<String>,
    ) -> Self {
        RelClassDef {
            kind: RelKind::Aggregation,
            sharable: false,
            acyclic: true,
            ..RelClassDef::association(name, origin, destination)
        }
    }

    /// Add a direct relationship superclass.
    pub fn extends(mut self, sup: impl Into<String>) -> Self {
        self.supers.push(sup.into());
        self
    }

    /// Add a user attribute.
    pub fn attr(mut self, attr: AttrDef) -> Self {
        self.attrs.push(attr);
        self
    }

    /// Builder-style setters for the built-in behaviours.
    pub fn exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }
    pub fn sharable(mut self, v: bool) -> Self {
        self.sharable = v;
        self
    }
    pub fn dependent(mut self) -> Self {
        self.dependent = true;
        self
    }
    pub fn constant(mut self) -> Self {
        self.constant = true;
        self
    }
    pub fn acyclic(mut self, v: bool) -> Self {
        self.acyclic = v;
        self
    }
    pub fn inherits(mut self, attr: impl Into<String>) -> Self {
        self.inheritable_attrs.push(attr.into());
        self
    }
    pub fn origin_cardinality(mut self, c: Cardinality) -> Self {
        self.origin_card = c;
        self
    }
    pub fn destination_cardinality(mut self, c: Cardinality) -> Self {
        self.destination_card = c;
        self
    }

    /// Enforce the thesis' Table 3 ("Allowed combinations of behaviours").
    ///
    /// * `exclusive` already bounds the destination side to one instance, so
    ///   it conflicts with a declared destination cardinality above one;
    /// * a **sharable** aggregation cannot be **dependent** (a part with
    ///   several wholes has no single lifetime owner);
    /// * `exclusive` + `sharable` aggregation is contradictory (an exclusive
    ///   part cannot be shared);
    /// * associations cannot be `dependent` — lifetime dependency is
    ///   whole–part semantics;
    /// * every inheritable attribute must be declared on the class.
    pub fn validate_combination(&self) -> DbResult<()> {
        if self.exclusive {
            if let Some(max) = self.destination_card.max {
                if max > 1 {
                    return Err(DbError::Schema(format!(
                        "relationship {}: exclusive contradicts destination cardinality max {max}",
                        self.name
                    )));
                }
            }
        }
        if self.kind == RelKind::Aggregation && self.sharable && self.dependent {
            return Err(DbError::Schema(format!(
                "relationship {}: a sharable aggregation cannot be lifetime-dependent",
                self.name
            )));
        }
        if self.kind == RelKind::Aggregation && self.sharable && self.exclusive {
            return Err(DbError::Schema(format!(
                "relationship {}: exclusive and sharable are contradictory",
                self.name
            )));
        }
        if self.kind == RelKind::Association && self.dependent {
            return Err(DbError::Schema(format!(
                "relationship {}: associations cannot carry lifetime dependency",
                self.name
            )));
        }
        let declared: HashSet<&str> = self.attrs.iter().map(|a| a.name.as_str()).collect();
        for inh in &self.inheritable_attrs {
            if !declared.contains(inh.as_str()) {
                return Err(DbError::Schema(format!(
                    "relationship {}: inheritable attribute '{inh}' is not declared",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// The schema registry: all class and relationship-class definitions, with
/// the derived inheritance closure.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct SchemaRegistry {
    classes: BTreeMap<String, ClassDef>,
    rel_classes: BTreeMap<String, RelClassDef>,
    /// Digest of the encoded registry (see [`SchemaRegistry::version`]).
    #[serde(skip)]
    digest: u64,
    /// class -> all transitive superclasses (excluding itself and `Object`).
    #[serde(skip)]
    super_closure: HashMap<String, HashSet<String>>,
    /// class -> all transitive subclasses (excluding itself).
    #[serde(skip)]
    sub_closure: HashMap<String, HashSet<String>>,
}

impl SchemaRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        SchemaRegistry::default()
    }

    /// Register an ordinary class. Superclasses must already be registered.
    pub fn define_class(&mut self, def: ClassDef) -> DbResult<()> {
        if def.name == OBJECT_CLASS || def.name == RELATIONSHIP_CLASS {
            return Err(DbError::Schema(format!(
                "class name '{}' is reserved",
                def.name
            )));
        }
        if self.classes.contains_key(&def.name) || self.rel_classes.contains_key(&def.name) {
            return Err(DbError::Schema(format!(
                "class '{}' is already defined",
                def.name
            )));
        }
        for sup in &def.supers {
            if sup != OBJECT_CLASS && !self.classes.contains_key(sup) {
                return Err(DbError::Schema(format!(
                    "class '{}' extends unknown class '{sup}'",
                    def.name
                )));
            }
        }
        self.check_attr_conflicts(&def)?;
        self.classes.insert(def.name.clone(), def);
        self.rebuild_closures();
        Ok(())
    }

    /// Register a relationship class. Endpoint classes and relationship
    /// superclasses must exist, and the behaviour combination must be legal.
    pub fn define_relationship(&mut self, def: RelClassDef) -> DbResult<()> {
        if self.classes.contains_key(&def.name) || self.rel_classes.contains_key(&def.name) {
            return Err(DbError::Schema(format!(
                "relationship class '{}' is already defined",
                def.name
            )));
        }
        def.validate_combination()?;
        for endpoint in [&def.origin_class, &def.destination_class] {
            if endpoint != OBJECT_CLASS && !self.classes.contains_key(endpoint) {
                return Err(DbError::Schema(format!(
                    "relationship '{}' references unknown class '{endpoint}'",
                    def.name
                )));
            }
        }
        for sup in &def.supers {
            if sup != RELATIONSHIP_CLASS && !self.rel_classes.contains_key(sup) {
                return Err(DbError::Schema(format!(
                    "relationship '{}' extends unknown relationship class '{sup}'",
                    def.name
                )));
            }
        }
        self.rel_classes.insert(def.name.clone(), def);
        self.rebuild_closures();
        Ok(())
    }

    /// Look up an ordinary class.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Look up a relationship class.
    pub fn rel_class(&self, name: &str) -> Option<&RelClassDef> {
        self.rel_classes.get(name)
    }

    /// All ordinary class names.
    pub fn class_names(&self) -> impl Iterator<Item = &str> {
        self.classes.keys().map(String::as_str)
    }

    /// All relationship class names.
    pub fn rel_class_names(&self) -> impl Iterator<Item = &str> {
        self.rel_classes.keys().map(String::as_str)
    }

    /// Schema version: a 64-bit FNV-1a digest of the encoded registry, set
    /// where the registry is decoded from its meta record (0 for one never
    /// decoded, or changed since). Equal versions mean equal definitions,
    /// across restarts too. `EXPLAIN` prints it, and it feeds a query
    /// plan's fingerprint.
    pub fn version(&self) -> u64 {
        self.digest
    }

    /// Decode a registry from its meta record, with closures and version.
    pub(crate) fn decode(bytes: &[u8]) -> DbResult<SchemaRegistry> {
        let mut reg: SchemaRegistry = codec::from_bytes(bytes)?;
        reg.rebuild_closures();
        reg.digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Ok(reg)
    }

    /// Is `sub` the same as, or a transitive subclass of, `sup`? Works for
    /// both ordinary and relationship classes; every ordinary class conforms
    /// to `Object`, every relationship class to `Relationship`.
    pub fn conforms(&self, sub: &str, sup: &str) -> bool {
        if sub == sup {
            return true;
        }
        if sup == OBJECT_CLASS {
            return self.classes.contains_key(sub);
        }
        if sup == RELATIONSHIP_CLASS {
            return self.rel_classes.contains_key(sub);
        }
        self.super_closure
            .get(sub)
            .is_some_and(|supers| supers.contains(sup))
    }

    /// `class` itself plus all its transitive subclasses.
    pub fn with_subclasses(&self, class: &str) -> Vec<String> {
        let mut out = vec![class.to_string()];
        if class == OBJECT_CLASS {
            out.extend(self.classes.keys().cloned());
            return out;
        }
        if class == RELATIONSHIP_CLASS {
            out.extend(self.rel_classes.keys().cloned());
            return out;
        }
        if let Some(subs) = self.sub_closure.get(class) {
            let mut subs: Vec<String> = subs.iter().cloned().collect();
            subs.sort();
            out.extend(subs);
        }
        out
    }

    /// The full attribute list of an ordinary class, including inherited
    /// attributes (supers first, declaration order preserved).
    pub fn all_attrs(&self, class: &str) -> DbResult<Vec<AttrDef>> {
        let def = self
            .classes
            .get(class)
            .ok_or_else(|| DbError::Schema(format!("unknown class '{class}'")))?;
        let mut out: Vec<AttrDef> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for sup in &def.supers {
            if sup == OBJECT_CLASS {
                continue;
            }
            for attr in self.all_attrs(sup)? {
                if seen.insert(attr.name.clone()) {
                    out.push(attr);
                }
            }
        }
        for attr in &def.attrs {
            if seen.insert(attr.name.clone()) {
                out.push(attr.clone());
            }
        }
        Ok(out)
    }

    /// The full attribute list of a relationship class, including attributes
    /// inherited from relationship superclasses.
    pub fn all_rel_attrs(&self, class: &str) -> DbResult<Vec<AttrDef>> {
        let def = self
            .rel_classes
            .get(class)
            .ok_or_else(|| DbError::Schema(format!("unknown relationship class '{class}'")))?;
        let mut out: Vec<AttrDef> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for sup in &def.supers {
            if sup == RELATIONSHIP_CLASS {
                continue;
            }
            for attr in self.all_rel_attrs(sup)? {
                if seen.insert(attr.name.clone()) {
                    out.push(attr);
                }
            }
        }
        for attr in &def.attrs {
            if seen.insert(attr.name.clone()) {
                out.push(attr.clone());
            }
        }
        Ok(out)
    }

    /// Rebuild closures after a definition or a decode (serde skips them),
    /// and drop the version: a registry changed since its decode has none
    /// until it is decoded again.
    fn rebuild_closures(&mut self) {
        self.digest = 0;
        self.super_closure.clear();
        self.sub_closure.clear();
        let class_supers: Vec<(String, Vec<String>)> = self
            .classes
            .values()
            .map(|c| (c.name.clone(), c.supers.clone()))
            .chain(
                self.rel_classes
                    .values()
                    .map(|r| (r.name.clone(), r.supers.clone())),
            )
            .collect();
        for (name, _) in &class_supers {
            let mut all = HashSet::new();
            let mut stack: Vec<String> = self.direct_supers(name);
            while let Some(s) = stack.pop() {
                if s == OBJECT_CLASS || s == RELATIONSHIP_CLASS {
                    continue;
                }
                if all.insert(s.clone()) {
                    stack.extend(self.direct_supers(&s));
                }
            }
            self.super_closure.insert(name.clone(), all);
        }
        for (name, supers) in self.super_closure.clone() {
            for sup in supers {
                self.sub_closure
                    .entry(sup)
                    .or_default()
                    .insert(name.clone());
            }
        }
    }

    fn direct_supers(&self, name: &str) -> Vec<String> {
        if let Some(c) = self.classes.get(name) {
            c.supers.clone()
        } else if let Some(r) = self.rel_classes.get(name) {
            r.supers.clone()
        } else {
            Vec::new()
        }
    }

    fn check_attr_conflicts(&self, def: &ClassDef) -> DbResult<()> {
        let mut names = HashSet::new();
        for attr in &def.attrs {
            if !names.insert(attr.name.as_str()) {
                return Err(DbError::Schema(format!(
                    "class '{}' declares attribute '{}' twice",
                    def.name, attr.name
                )));
            }
        }
        // Diamond conflicts: two supers declaring the same attribute with
        // different types are rejected (the thesis model inherits attributes
        // by name).
        let mut inherited: HashMap<String, Type> = HashMap::new();
        for sup in &def.supers {
            if sup == OBJECT_CLASS {
                continue;
            }
            for attr in self.all_attrs(sup)? {
                if let Some(existing) = inherited.get(&attr.name) {
                    if *existing != attr.ty {
                        return Err(DbError::Schema(format!(
                            "class '{}' inherits attribute '{}' with conflicting types",
                            def.name, attr.name
                        )));
                    }
                } else {
                    inherited.insert(attr.name.clone(), attr.ty.clone());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_taxa() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.define_class(
            ClassDef::new("Taxon")
                .attr(AttrDef::required("name", Type::Str))
                .abstract_class(),
        )
        .unwrap();
        reg.define_class(
            ClassDef::new("CT")
                .extends("Taxon")
                .attr(AttrDef::optional("rank", Type::Str)),
        )
        .unwrap();
        reg.define_class(ClassDef::new("Specimen").attr(AttrDef::required("code", Type::Str)))
            .unwrap();
        reg
    }

    #[test]
    fn subclass_conformance() {
        let reg = registry_with_taxa();
        assert!(reg.conforms("CT", "Taxon"));
        assert!(reg.conforms("CT", "CT"));
        assert!(reg.conforms("CT", "Object"));
        assert!(!reg.conforms("Taxon", "CT"));
        assert!(!reg.conforms("Specimen", "Taxon"));
    }

    #[test]
    fn with_subclasses_lists_tree() {
        let reg = registry_with_taxa();
        let subs = reg.with_subclasses("Taxon");
        assert_eq!(subs, vec!["Taxon".to_string(), "CT".to_string()]);
    }

    #[test]
    fn attrs_are_inherited_in_order() {
        let reg = registry_with_taxa();
        let attrs = reg.all_attrs("CT").unwrap();
        let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["name", "rank"]);
    }

    #[test]
    fn unknown_super_is_rejected() {
        let mut reg = SchemaRegistry::new();
        let err = reg
            .define_class(ClassDef::new("X").extends("Nope"))
            .unwrap_err();
        assert!(matches!(err, DbError::Schema(_)));
    }

    #[test]
    fn duplicate_class_is_rejected() {
        let mut reg = registry_with_taxa();
        assert!(reg.define_class(ClassDef::new("CT")).is_err());
    }

    #[test]
    fn duplicate_attr_is_rejected() {
        let mut reg = SchemaRegistry::new();
        let err = reg
            .define_class(
                ClassDef::new("X")
                    .attr(AttrDef::required("a", Type::Int))
                    .attr(AttrDef::required("a", Type::Str)),
            )
            .unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn diamond_type_conflict_is_rejected() {
        let mut reg = SchemaRegistry::new();
        reg.define_class(ClassDef::new("A").attr(AttrDef::required("x", Type::Int)))
            .unwrap();
        reg.define_class(ClassDef::new("B").attr(AttrDef::required("x", Type::Str)))
            .unwrap();
        let err = reg
            .define_class(ClassDef::new("C").extends("A").extends("B"))
            .unwrap_err();
        assert!(err.to_string().contains("conflicting"));
    }

    #[test]
    fn relationship_requires_known_endpoints() {
        let mut reg = registry_with_taxa();
        assert!(reg
            .define_relationship(RelClassDef::association("R", "CT", "Nowhere"))
            .is_err());
        assert!(reg
            .define_relationship(RelClassDef::association("R", "CT", "Specimen"))
            .is_ok());
    }

    #[test]
    fn table3_sharable_dependent_aggregation_rejected() {
        let def = RelClassDef::aggregation("R", "Object", "Object")
            .sharable(true)
            .dependent();
        assert!(def.validate_combination().is_err());
    }

    #[test]
    fn table3_exclusive_sharable_aggregation_rejected() {
        let def = RelClassDef::aggregation("R", "Object", "Object")
            .sharable(true)
            .exclusive();
        assert!(def.validate_combination().is_err());
    }

    #[test]
    fn table3_dependent_association_rejected() {
        let mut def = RelClassDef::association("R", "Object", "Object");
        def.dependent = true;
        assert!(def.validate_combination().is_err());
    }

    #[test]
    fn table3_exclusive_vs_destination_cardinality() {
        let def = RelClassDef::association("R", "Object", "Object")
            .exclusive()
            .destination_cardinality(Cardinality {
                min: 0,
                max: Some(3),
            });
        assert!(def.validate_combination().is_err());
        let ok = RelClassDef::association("R", "Object", "Object")
            .exclusive()
            .destination_cardinality(Cardinality::OPTIONAL);
        assert!(ok.validate_combination().is_ok());
    }

    #[test]
    fn inheritable_attrs_must_be_declared() {
        let def = RelClassDef::association("R", "Object", "Object").inherits("ghost");
        assert!(def.validate_combination().is_err());
        let ok = RelClassDef::association("R", "Object", "Object")
            .attr(AttrDef::optional("weight", Type::Float))
            .inherits("weight");
        assert!(ok.validate_combination().is_ok());
    }

    #[test]
    fn relationship_inheritance_and_attrs() {
        let mut reg = registry_with_taxa();
        reg.define_relationship(
            RelClassDef::association("Link", "Object", "Object")
                .attr(AttrDef::optional("remark", Type::Str)),
        )
        .unwrap();
        reg.define_relationship(
            RelClassDef::association("Placement", "Taxon", "Taxon")
                .extends("Link")
                .attr(AttrDef::optional("year", Type::Int)),
        )
        .unwrap();
        assert!(reg.conforms("Placement", "Link"));
        assert!(reg.conforms("Placement", "Relationship"));
        let attrs = reg.all_rel_attrs("Placement").unwrap();
        let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["remark", "year"]);
    }

    #[test]
    fn cardinality_bounds() {
        assert!(Cardinality::ONE.exceeded_by(2));
        assert!(!Cardinality::ONE.exceeded_by(1));
        assert!(!Cardinality::MANY.exceeded_by(u32::MAX));
        assert!(Cardinality::OPTIONAL.exceeded_by(2));
    }

    #[test]
    fn serde_round_trip_rebuilds_closures() {
        let mut reg = registry_with_taxa();
        reg.define_relationship(RelClassDef::association("R", "CT", "Specimen"))
            .unwrap();
        let bytes = codec::to_bytes(&reg).unwrap();
        let back = SchemaRegistry::decode(&bytes).unwrap();
        assert!(back.conforms("CT", "Taxon"));
        assert!(back.rel_class("R").is_some());
        let again = SchemaRegistry::decode(&codec::to_bytes(&back).unwrap()).unwrap();
        assert_eq!(
            again.version(),
            back.version(),
            "the version is the content"
        );
        reg.define_class(ClassDef::new("Later")).unwrap();
        assert_eq!(reg.version(), 0, "a changed registry has no version");
        let later = SchemaRegistry::decode(&codec::to_bytes(&reg).unwrap()).unwrap();
        assert_ne!(later.version(), back.version());
    }

    #[test]
    fn reserved_names_rejected() {
        let mut reg = SchemaRegistry::new();
        assert!(reg.define_class(ClassDef::new("Object")).is_err());
        assert!(reg.define_class(ClassDef::new("Relationship")).is_err());
    }
}

impl SchemaRegistry {
    /// Render the schema as ODL-flavoured text (the notation chapter 4
    /// defines the model against). Relationship classes print their built-in
    /// behavioural attributes as bracketed annotations, since ODMG's ODL has
    /// no syntax for them — which is the thesis' point.
    pub fn to_odl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for class in self.classes.values() {
            let _ = write!(out, "class {}", class.name);
            if !class.supers.is_empty() {
                let _ = write!(out, " extends {}", class.supers.join(", "));
            }
            if class.is_abstract {
                let _ = write!(out, " /* abstract */");
            }
            let _ = writeln!(out, " {{");
            for attr in &class.attrs {
                let _ = write!(out, "    attribute {} {}", attr.ty, attr.name);
                let mut notes = Vec::new();
                if attr.optional {
                    notes.push("optional".to_string());
                }
                if attr.indexed {
                    notes.push("indexed".to_string());
                }
                if let Some(d) = &attr.default {
                    notes.push(format!("default {d}"));
                }
                if !notes.is_empty() {
                    let _ = write!(out, " /* {} */", notes.join(", "));
                }
                let _ = writeln!(out, ";");
            }
            let _ = writeln!(out, "}}");
        }
        for rel in self.rel_classes.values() {
            let kind = match rel.kind {
                RelKind::Aggregation => "aggregation",
                RelKind::Association => "association",
            };
            let _ = write!(out, "relationship {} {}", kind, rel.name);
            if !rel.supers.is_empty() {
                let _ = write!(out, " extends {}", rel.supers.join(", "));
            }
            let _ = writeln!(
                out,
                " ({} -> {}) {{",
                rel.origin_class, rel.destination_class
            );
            let mut behaviours = Vec::new();
            if rel.exclusive {
                behaviours.push("exclusive".to_string());
            }
            if rel.sharable {
                behaviours.push("sharable".to_string());
            }
            if rel.dependent {
                behaviours.push("dependent".to_string());
            }
            if rel.constant {
                behaviours.push("constant".to_string());
            }
            if rel.acyclic {
                behaviours.push("acyclic".to_string());
            }
            let card = |c: &Cardinality| match c.max {
                Some(max) => format!("{}..{}", c.min, max),
                None => format!("{}..*", c.min),
            };
            behaviours.push(format!("origin {}", card(&rel.origin_card)));
            behaviours.push(format!("destination {}", card(&rel.destination_card)));
            let _ = writeln!(out, "    [{}]", behaviours.join(", "));
            for attr in &rel.attrs {
                let inherited = if rel.inheritable_attrs.contains(&attr.name) {
                    " /* inheritable */"
                } else {
                    ""
                };
                let _ = writeln!(out, "    attribute {} {}{inherited};", attr.ty, attr.name);
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

#[cfg(test)]
mod odl_tests {
    use super::*;
    use crate::value::Type;

    #[test]
    fn odl_export_covers_classes_and_relationships() {
        let mut reg = SchemaRegistry::new();
        reg.define_class(
            ClassDef::new("Taxon")
                .abstract_class()
                .attr(AttrDef::required("name", Type::Str).indexed()),
        )
        .unwrap();
        reg.define_class(
            ClassDef::new("CT")
                .extends("Taxon")
                .attr(AttrDef::optional("rank", Type::Str).with_default("Genus")),
        )
        .unwrap();
        reg.define_relationship(
            RelClassDef::aggregation("Circumscribes", "CT", "Taxon")
                .sharable(true)
                .attr(AttrDef::optional("remark", Type::Str))
                .inherits("remark"),
        )
        .unwrap();
        let odl = reg.to_odl();
        assert!(odl.contains("class Taxon /* abstract */ {"));
        assert!(odl.contains("attribute string name /* indexed */;"));
        assert!(odl.contains("class CT extends Taxon {"));
        assert!(odl.contains("default \"Genus\""));
        assert!(odl.contains("relationship aggregation Circumscribes (CT -> Taxon) {"));
        assert!(odl.contains("sharable"));
        assert!(odl.contains("acyclic"));
        assert!(odl.contains("/* inheritable */"));
        assert!(odl.contains("origin 0..*"));
    }
}
