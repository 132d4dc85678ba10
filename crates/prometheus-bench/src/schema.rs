//! The benchmark schemas (Figures 43, 47 and 48).
//!
//! OO7's design is a composition hierarchy: a module, a tree of assemblies,
//! and composite/atomic parts at the leaves. The thesis adapted it twice:
//!
//! * **Figure 47 — the "POET" build** ([`RawDb`]): objects serialised
//!   straight into the storage substrate with *embedded references* (a
//!   `children` vector inside each record) — the classical object-database
//!   representation whose limitations §4.8.1 discusses (no reverse
//!   navigation, no relationship semantics, no classification);
//! * **Figure 48 — the Prometheus build** ([`PromDb`]): the same shape
//!   expressed with schema-checked classes, first-class `Composes`
//!   relationships (sharable aggregation with a traceability attribute) and
//!   a classification containing every edge.
//!
//! Both builds run on identical [`prometheus_storage::Store`]s, so every
//! measured difference is the price (or payoff) of the Prometheus feature
//! layer.

use prometheus_object::{
    shard_routing, AttrDef, ClassDef, Classification, Database, DbResult, Oid, RelClassDef,
    ShardedStore, Store, StoreOptions, Type, Value,
};
use prometheus_storage::codec;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// Workload size parameters (OO7-small is roughly `fanout 3, levels 4,
/// parts_per_leaf 5`).
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    /// Children per assembly node.
    pub fanout: usize,
    /// Depth of the assembly tree (root = level 0).
    pub levels: usize,
    /// Atomic parts attached to each leaf assembly.
    pub parts_per_leaf: usize,
}

impl BenchParams {
    /// A small configuration for tests.
    pub const SMALL: BenchParams = BenchParams {
        fanout: 3,
        levels: 3,
        parts_per_leaf: 4,
    };

    /// Scale the tree to approximately `n` total nodes by deepening the
    /// assembly tree (used for the Figure 44–46 size sweeps).
    pub fn with_target_nodes(n: usize) -> BenchParams {
        let mut p = BenchParams {
            fanout: 3,
            levels: 2,
            parts_per_leaf: 4,
        };
        while p.node_count() < n && p.levels < 12 {
            p.levels += 1;
        }
        p
    }

    /// Number of assembly nodes.
    pub fn assembly_count(&self) -> usize {
        (0..self.levels).map(|l| self.fanout.pow(l as u32)).sum()
    }

    /// Number of leaf assemblies.
    pub fn leaf_count(&self) -> usize {
        self.fanout.pow((self.levels - 1) as u32)
    }

    /// Total nodes (assemblies + parts).
    pub fn node_count(&self) -> usize {
        self.assembly_count() + self.leaf_count() * self.parts_per_leaf
    }

    /// Total edges.
    pub fn edge_count(&self) -> usize {
        self.node_count() - 1
    }
}

/// A record in the raw build: references embedded in the object, exactly the
/// §4.8.1 "reference problem" representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawPart {
    pub id: u64,
    /// 0 = assembly, 1 = atomic part.
    pub kind: u8,
    pub label: String,
    pub build_date: i64,
    pub children: Vec<Oid>,
}

/// The Figure 47 build: hand-rolled objects over the bare substrate.
pub struct RawDb {
    pub store: Arc<Store>,
    pub root: Oid,
    pub assemblies: Vec<Oid>,
    pub parts: Vec<Oid>,
    pub params: BenchParams,
    path: PathBuf,
}

impl RawDb {
    /// Build the raw database.
    pub fn build(name: &str, params: BenchParams) -> DbResult<RawDb> {
        let path = bench_path(name);
        let store = Arc::new(Store::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )?);
        let mut assemblies = Vec::with_capacity(params.assembly_count());
        let mut parts = Vec::new();
        let mut counter = 0u64;

        // Build bottom-up so children OIDs exist when parents serialise.
        let mut txn = store.begin();
        let mut current_level: Vec<Oid> = Vec::new();
        // Leaf assemblies with their parts first.
        for _ in 0..params.leaf_count() {
            let mut children = Vec::with_capacity(params.parts_per_leaf);
            for _ in 0..params.parts_per_leaf {
                let oid = store.allocate_oid();
                let part = RawPart {
                    id: counter,
                    kind: 1,
                    label: format!("part-{counter}"),
                    build_date: 1000 + (counter % 500) as i64,
                    children: Vec::new(),
                };
                counter += 1;
                txn.put(oid, codec::to_bytes(&part)?);
                parts.push(oid);
                children.push(oid);
            }
            let oid = store.allocate_oid();
            let assembly = RawPart {
                id: counter,
                kind: 0,
                label: format!("assembly-{counter}"),
                build_date: 1000 + (counter % 500) as i64,
                children,
            };
            counter += 1;
            txn.put(oid, codec::to_bytes(&assembly)?);
            assemblies.push(oid);
            current_level.push(oid);
        }
        // Upper levels.
        while current_level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in current_level.chunks(params.fanout) {
                let oid = store.allocate_oid();
                let assembly = RawPart {
                    id: counter,
                    kind: 0,
                    label: format!("assembly-{counter}"),
                    build_date: 1000 + (counter % 500) as i64,
                    children: chunk.to_vec(),
                };
                counter += 1;
                txn.put(oid, codec::to_bytes(&assembly)?);
                assemblies.push(oid);
                next_level.push(oid);
            }
            current_level = next_level;
        }
        let root = current_level[0];
        txn.commit()?;
        Ok(RawDb {
            store,
            root,
            assemblies,
            parts,
            params,
            path,
        })
    }

    /// Decode one record.
    pub fn get(&self, oid: Oid) -> DbResult<RawPart> {
        let bytes = self
            .store
            .get(oid)
            .ok_or(prometheus_object::DbError::NotFound(oid))?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// Write one record back.
    pub fn put(&self, oid: Oid, part: &RawPart) -> DbResult<()> {
        let bytes = codec::to_bytes(part)?;
        self.store.with_txn(|t| {
            t.put(oid, bytes.clone());
            Ok(())
        })?;
        Ok(())
    }

    /// Delete the benchmark file.
    pub fn cleanup(self) {
        let _ = std::fs::remove_file(self.path);
    }
}

/// The Figure 48 build: the same hierarchy through the Prometheus layer.
pub struct PromDb {
    pub db: Arc<Database>,
    pub root: Oid,
    pub cls: Classification,
    pub assemblies: Vec<Oid>,
    pub parts: Vec<Oid>,
    pub params: BenchParams,
    path: PathBuf,
}

/// Relationship class used by the Prometheus build.
pub const COMPOSES: &str = "Composes";

impl PromDb {
    /// Build the Prometheus database.
    pub fn build(name: &str, params: BenchParams) -> DbResult<PromDb> {
        let path = bench_path(name);
        let store = Arc::new(ShardedStore::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
            1,
            shard_routing(),
        )?);
        let db = Arc::new(Database::open_sharded(store)?);
        db.define_class(
            ClassDef::new("Assembly")
                .attr(AttrDef::required("label", Type::Str).indexed())
                .attr(AttrDef::required("build_date", Type::Int).indexed()),
        )?;
        db.define_class(
            ClassDef::new("Part")
                .attr(AttrDef::required("label", Type::Str).indexed())
                .attr(AttrDef::required("build_date", Type::Int).indexed())
                // Deliberately unindexed copy of `label`, for the index
                // ablation experiment.
                .attr(AttrDef::optional("note", Type::Str)),
        )?;
        db.define_relationship(
            RelClassDef::aggregation(COMPOSES, "Assembly", "Object")
                .sharable(true)
                .attr(AttrDef::optional("remark", Type::Str)),
        )?;
        let cls = Classification::create(&db, "design", Vec::new(), true)?;

        let mut assemblies = Vec::with_capacity(params.assembly_count());
        let mut parts = Vec::new();
        let mut counter = 0u64;
        let token = db.begin_unit();
        let mut current_level: Vec<Oid> = Vec::new();
        for _ in 0..params.leaf_count() {
            let assembly = {
                let oid = db.create_object(
                    "Assembly",
                    vec![
                        (
                            "label".to_string(),
                            Value::from(format!("assembly-{counter}")),
                        ),
                        (
                            "build_date".to_string(),
                            Value::Int(1000 + (counter % 500) as i64),
                        ),
                    ],
                )?;
                counter += 1;
                oid
            };
            for _ in 0..params.parts_per_leaf {
                let part = db.create_object(
                    "Part",
                    vec![
                        ("label".to_string(), Value::from(format!("part-{counter}"))),
                        (
                            "build_date".to_string(),
                            Value::Int(1000 + (counter % 500) as i64),
                        ),
                        ("note".to_string(), Value::from(format!("part-{counter}"))),
                    ],
                )?;
                counter += 1;
                cls.link(&db, COMPOSES, assembly, part, Vec::new())?;
                parts.push(part);
            }
            assemblies.push(assembly);
            current_level.push(assembly);
        }
        while current_level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in current_level.chunks(params.fanout) {
                let parent = db.create_object(
                    "Assembly",
                    vec![
                        (
                            "label".to_string(),
                            Value::from(format!("assembly-{counter}")),
                        ),
                        (
                            "build_date".to_string(),
                            Value::Int(1000 + (counter % 500) as i64),
                        ),
                    ],
                )?;
                counter += 1;
                for &child in chunk {
                    cls.link(&db, COMPOSES, parent, child, Vec::new())?;
                }
                assemblies.push(parent);
                next_level.push(parent);
            }
            current_level = next_level;
        }
        let root = current_level[0];
        db.commit_unit(token)?;
        Ok(PromDb {
            db,
            root,
            cls,
            assemblies,
            parts,
            params,
            path,
        })
    }

    /// Delete the benchmark file.
    pub fn cleanup(self) {
        let _ = std::fs::remove_file(self.path);
    }
}

fn bench_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "prometheus-bench-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_count_nodes() {
        let p = BenchParams {
            fanout: 3,
            levels: 3,
            parts_per_leaf: 4,
        };
        assert_eq!(p.assembly_count(), 1 + 3 + 9);
        assert_eq!(p.leaf_count(), 9);
        assert_eq!(p.node_count(), 13 + 36);
        assert_eq!(p.edge_count(), 48);
        let big = BenchParams::with_target_nodes(1000);
        assert!(big.node_count() >= 1000);
    }

    #[test]
    fn raw_build_matches_params_and_navigates() {
        let raw = RawDb::build("schema-raw-test", BenchParams::SMALL).unwrap();
        assert_eq!(raw.assemblies.len(), BenchParams::SMALL.assembly_count());
        assert_eq!(
            raw.parts.len(),
            BenchParams::SMALL.leaf_count() * BenchParams::SMALL.parts_per_leaf
        );
        let root = raw.get(raw.root).unwrap();
        assert_eq!(root.kind, 0);
        assert_eq!(root.children.len(), BenchParams::SMALL.fanout);
        // Full DFS touches every node exactly once.
        let mut stack = vec![raw.root];
        let mut count = 0;
        while let Some(oid) = stack.pop() {
            count += 1;
            stack.extend(raw.get(oid).unwrap().children);
        }
        assert_eq!(count, BenchParams::SMALL.node_count());
        raw.cleanup();
    }

    #[test]
    fn prom_build_matches_params_and_navigates() {
        let prom = PromDb::build("schema-prom-test", BenchParams::SMALL).unwrap();
        assert_eq!(prom.assemblies.len(), BenchParams::SMALL.assembly_count());
        let desc = prom.cls.descendants(&prom.db, prom.root, None).unwrap();
        assert_eq!(desc.len() + 1, BenchParams::SMALL.node_count());
        assert_eq!(
            prom.cls.edges(&prom.db).unwrap().len(),
            BenchParams::SMALL.edge_count()
        );
        // The classification is a sound strict hierarchy.
        assert!(prom.cls.check_integrity(&prom.db).unwrap().is_empty());
        prom.cleanup();
    }
}
