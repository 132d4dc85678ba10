//! The measured operations of chapter 7.2.
//!
//! Every operation exists in two variants — raw substrate and Prometheus —
//! with identical observable work, so timings compare like for like:
//!
//! * raw performance: `*_create`, `*_lookup`, `*_read_attr`,
//!   `*_update_attr` (§7.2.1.2.1);
//! * traversals T1 (full read), T2 (full update), T3 (sparse), T5
//!   (hierarchy walk used for the Figure 44 size sweep);
//! * queries Q1–Q8 (§7.2.1.2.2) — Prometheus runs POOL, raw runs the
//!   equivalent hand-coded loop (what an application on bare POET would do);
//! * structural modifications S1 (insert subtree, Figure 45) and S2 (delete
//!   subtree, Figure 46).

use crate::schema::{PromDb, RawDb, RawPart, COMPOSES};
use prometheus_object::{DbResult, Oid, Value};
use prometheus_storage::codec;

// ---------------------------------------------------------------------
// Raw performance (§7.2.1.2.1)
// ---------------------------------------------------------------------

/// Create `n` unattached part records in the raw build; returns their OIDs.
pub fn raw_create(raw: &RawDb, n: usize) -> DbResult<Vec<Oid>> {
    let mut out = Vec::with_capacity(n);
    let mut txn = raw.store.begin();
    for i in 0..n {
        let oid = raw.store.allocate_oid();
        let part = RawPart {
            id: 900_000 + i as u64,
            kind: 1,
            label: format!("fresh-{i}"),
            build_date: 1,
            children: Vec::new(),
        };
        txn.put(oid, codec::to_bytes(&part)?);
        out.push(oid);
    }
    txn.commit()?;
    Ok(out)
}

/// Create `n` unattached Part objects through the Prometheus layer.
pub fn prom_create(prom: &PromDb, n: usize) -> DbResult<Vec<Oid>> {
    let token = prom.db.begin_unit();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(prom.db.create_object(
            "Part",
            vec![
                ("label".to_string(), Value::from(format!("fresh-{i}"))),
                ("build_date".to_string(), Value::Int(1)),
            ],
        )?);
    }
    prom.db.commit_unit(token)?;
    Ok(out)
}

/// Read every listed record (decode included).
pub fn raw_lookup(raw: &RawDb, oids: &[Oid]) -> DbResult<u64> {
    let mut acc = 0u64;
    for &oid in oids {
        acc = acc.wrapping_add(raw.get(oid)?.id);
    }
    Ok(acc)
}

/// Read every listed object through the object layer (decode + checks).
pub fn prom_lookup(prom: &PromDb, oids: &[Oid]) -> DbResult<u64> {
    let mut acc = 0u64;
    for &oid in oids {
        acc = acc.wrapping_add(prom.db.object(oid)?.oid.raw());
    }
    Ok(acc)
}

/// Sum `build_date` over the listed records.
pub fn raw_read_attr(raw: &RawDb, oids: &[Oid]) -> DbResult<i64> {
    let mut acc = 0i64;
    for &oid in oids {
        acc += raw.get(oid)?.build_date;
    }
    Ok(acc)
}

/// Sum `build_date` through attribute access (type- and inheritance-aware).
pub fn prom_read_attr(prom: &PromDb, oids: &[Oid]) -> DbResult<i64> {
    let mut acc = 0i64;
    for &oid in oids {
        acc += prom.db.attr_of(oid, "build_date")?.as_int().unwrap_or(0);
    }
    Ok(acc)
}

/// Increment `build_date` on every listed record.
pub fn raw_update_attr(raw: &RawDb, oids: &[Oid]) -> DbResult<()> {
    for &oid in oids {
        let mut part = raw.get(oid)?;
        part.build_date += 1;
        raw.put(oid, &part)?;
    }
    Ok(())
}

/// Increment `build_date` through the object layer (index maintenance,
/// events).
pub fn prom_update_attr(prom: &PromDb, oids: &[Oid]) -> DbResult<()> {
    for &oid in oids {
        let current = prom.db.attr_of(oid, "build_date")?.as_int().unwrap_or(0);
        prom.db
            .set_attr(oid, "build_date", Value::Int(current + 1))?;
    }
    Ok(())
}

/// Create `n` relationship instances (Prometheus only — the raw build's
/// "relationship" is an in-record vector push, measured for contrast).
pub fn prom_link(prom: &PromDb, pairs: &[(Oid, Oid)]) -> DbResult<Vec<Oid>> {
    let token = prom.db.begin_unit();
    let mut out = Vec::with_capacity(pairs.len());
    for &(a, b) in pairs {
        out.push(prom.db.create_relationship(COMPOSES, a, b, Vec::new())?);
    }
    prom.db.commit_unit(token)?;
    Ok(out)
}

/// The raw equivalent of linking: append a child OID into the parent record.
pub fn raw_link(raw: &RawDb, pairs: &[(Oid, Oid)]) -> DbResult<()> {
    for &(a, b) in pairs {
        let mut parent = raw.get(a)?;
        parent.children.push(b);
        raw.put(a, &parent)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Traversals
// ---------------------------------------------------------------------

/// T1: full depth-first read of the hierarchy; returns nodes touched.
pub fn raw_t1(raw: &RawDb) -> DbResult<usize> {
    let mut stack = vec![raw.root];
    let mut count = 0;
    while let Some(oid) = stack.pop() {
        count += 1;
        stack.extend(raw.get(oid)?.children);
    }
    Ok(count)
}

/// T1 over the Prometheus classification.
pub fn prom_t1(prom: &PromDb) -> DbResult<usize> {
    Ok(prom.cls.descendants(&prom.db, prom.root, None)?.len() + 1)
}

/// T2: full traversal with an update at every node.
pub fn raw_t2(raw: &RawDb) -> DbResult<usize> {
    let mut stack = vec![raw.root];
    let mut count = 0;
    while let Some(oid) = stack.pop() {
        let mut part = raw.get(oid)?;
        part.build_date += 1;
        stack.extend(part.children.iter().copied());
        raw.put(oid, &part)?;
        count += 1;
    }
    Ok(count)
}

/// T2 through the object layer.
pub fn prom_t2(prom: &PromDb) -> DbResult<usize> {
    let token = prom.db.begin_unit();
    let mut nodes = vec![prom.root];
    nodes.extend(prom.cls.descendants(&prom.db, prom.root, None)?);
    for &oid in &nodes {
        let current = prom.db.attr_of(oid, "build_date")?.as_int().unwrap_or(0);
        prom.db
            .set_attr(oid, "build_date", Value::Int(current + 1))?;
    }
    let count = nodes.len();
    prom.db.commit_unit(token)?;
    Ok(count)
}

/// T3: sparse traversal — follow only the first child at each level.
pub fn raw_t3(raw: &RawDb) -> DbResult<usize> {
    let mut count = 0;
    let mut current = raw.root;
    loop {
        count += 1;
        let part = raw.get(current)?;
        match part.children.first() {
            Some(&child) => current = child,
            None => return Ok(count),
        }
    }
}

/// T3 over the classification.
pub fn prom_t3(prom: &PromDb) -> DbResult<usize> {
    let mut count = 0;
    let mut current = prom.root;
    loop {
        count += 1;
        let children = prom.cls.children(&prom.db, current)?;
        match children.first() {
            Some(&child) => current = child,
            None => return Ok(count),
        }
    }
}

/// T5 (the Figure 44 sweep): full hierarchy walk — same as T1 but reported
/// per node so the "constant increase in cost" claim can be tested.
pub fn prom_t5_per_node(prom: &PromDb) -> DbResult<f64> {
    let (count, d) = crate::time_once(|| prom_t1(prom));
    Ok(crate::micros(d) / count? as f64)
}

// ---------------------------------------------------------------------
// Queries (§7.2.1.2.2)
// ---------------------------------------------------------------------

/// Q1: exact-match on an indexed attribute. Raw: full scan (no index).
pub fn raw_q1(raw: &RawDb, label: &str) -> DbResult<usize> {
    let mut hits = 0;
    for &oid in raw.assemblies.iter().chain(raw.parts.iter()) {
        if raw.get(oid)?.label == label {
            hits += 1;
        }
    }
    Ok(hits)
}

/// Q1 through POOL (index-seeded by the planner).
pub fn prom_q1(prom: &PromDb, label: &str) -> DbResult<usize> {
    let r = prometheus_pool::query(
        &prom.db,
        &format!("select p from Part p where p.label = \"{label}\""),
    )?;
    Ok(r.len())
}

/// Q2: range query over `build_date`. Raw: full scan.
pub fn raw_q2(raw: &RawDb, lo: i64, hi: i64) -> DbResult<usize> {
    let mut hits = 0;
    for &oid in raw.parts.iter() {
        let d = raw.get(oid)?.build_date;
        if d >= lo && d < hi {
            hits += 1;
        }
    }
    Ok(hits)
}

/// Q2 through the attribute index.
pub fn prom_q2(prom: &PromDb, lo: i64, hi: i64) -> DbResult<usize> {
    Ok(prom
        .db
        .find_by_attr_range("Part", "build_date", &Value::Int(lo), &Value::Int(hi))?
        .len())
}

/// Q4: transitive closure from the root (POOL `->*`).
pub fn prom_q4(prom: &PromDb) -> DbResult<usize> {
    let r = prometheus_pool::query(
        &prom.db,
        "select count(a -> Composes*) from Assembly a \
         where a.label = \"ROOT_LABEL\""
            .replace(
                "ROOT_LABEL",
                prom.db.object(prom.root)?.attr("label").as_str().unwrap(),
            )
            .as_str(),
    )?;
    Ok(r.rows[0].columns[0].as_int().unwrap_or(0) as usize)
}

/// Q3: one-hop path — the direct children of an assembly.
pub fn raw_q3(raw: &RawDb, assembly: Oid) -> DbResult<usize> {
    Ok(raw.get(assembly)?.children.len())
}

/// Q3 through POOL's `->` operator.
pub fn prom_q3(prom: &PromDb, assembly: Oid) -> DbResult<usize> {
    let label = prom.db.object(assembly)?.attr("label");
    let r = prometheus_pool::query(
        &prom.db,
        &format!("select count(a -> Composes) from Assembly a where a.label = {label}"),
    )?;
    Ok(r.rows[0].columns[0].as_int().unwrap_or(0) as usize)
}

/// Q5: context-scoped query — parts reachable from the root *within the
/// design classification* (Prometheus only; the raw build has no notion of
/// classification at all, which is the point).
pub fn prom_q5(prom: &PromDb) -> DbResult<usize> {
    let label = prom.db.object(prom.root)?.attr("label");
    let r = prometheus_pool::query(
        &prom.db,
        &format!(
            "select count(a -> Composes*) from Assembly a in classification \"design\" \
             where a.label = {label}"
        ),
    )?;
    Ok(r.rows[0].columns[0].as_int().unwrap_or(0) as usize)
}

/// Q7: selective downcast — of everything below the root, keep only the
/// atomic parts. Raw build filters on its `kind` tag by hand.
pub fn raw_q7(raw: &RawDb) -> DbResult<usize> {
    let mut stack = vec![raw.root];
    let mut hits = 0;
    while let Some(oid) = stack.pop() {
        let part = raw.get(oid)?;
        if part.kind == 1 {
            hits += 1;
        }
        stack.extend(part.children);
    }
    Ok(hits)
}

/// Q7 through POOL's `(Class)` operator.
pub fn prom_q7(prom: &PromDb) -> DbResult<usize> {
    let label = prom.db.object(prom.root)?.attr("label");
    let r = prometheus_pool::query(
        &prom.db,
        &format!(
            "select length((Part) collect(a -> Composes*)) from Assembly a \
             where a.label = {label}"
        ),
    )?;
    Ok(r.rows[0].columns[0].as_int().unwrap_or(0) as usize)
}

/// Q8: graph extraction — pull the subtree under an assembly out as a new
/// classification (Prometheus only; the raw build would have to copy
/// records wholesale).
pub fn prom_q8(prom: &PromDb, assembly: Oid) -> DbResult<usize> {
    let sub = prom.cls.extract_subtree(&prom.db, assembly, "extracted")?;
    let n = prom.db.classification_edges(sub.oid())?.len();
    prom.db.delete_classification(sub.oid())?;
    Ok(n)
}

/// Q6: reverse traversal — which assemblies contain a given part?
/// Raw build must scan every assembly (no reverse references).
pub fn raw_q6(raw: &RawDb, target: Oid) -> DbResult<usize> {
    let mut hits = 0;
    for &oid in raw.assemblies.iter() {
        if raw.get(oid)?.children.contains(&target) {
            hits += 1;
        }
    }
    Ok(hits)
}

/// Q6 through the endpoint index — the payoff of first-class relationships.
pub fn prom_q6(prom: &PromDb, target: Oid) -> DbResult<usize> {
    Ok(prom.db.rels_to(target, Some(COMPOSES))?.len())
}

// ---------------------------------------------------------------------
// Structural modifications (§7.2.1.2.3)
// ---------------------------------------------------------------------

/// S1: insert a subassembly of `k` fresh parts under a leaf assembly.
pub fn raw_s1(raw: &RawDb, parent: Oid, k: usize) -> DbResult<Vec<Oid>> {
    let fresh = raw_create(raw, k)?;
    let mut parent_rec = raw.get(parent)?;
    parent_rec.children.extend(fresh.iter().copied());
    raw.put(parent, &parent_rec)?;
    Ok(fresh)
}

/// S1 through the Prometheus layer (relationships + classification
/// membership + extents + attribute indexes + rules all maintained).
pub fn prom_s1(prom: &PromDb, parent: Oid, k: usize) -> DbResult<Vec<Oid>> {
    let token = prom.db.begin_unit();
    let mut fresh = Vec::with_capacity(k);
    for i in 0..k {
        let part = prom.db.create_object(
            "Part",
            vec![
                ("label".to_string(), Value::from(format!("s1-{i}"))),
                ("build_date".to_string(), Value::Int(2)),
            ],
        )?;
        prom.cls
            .link(&prom.db, COMPOSES, parent, part, Vec::new())?;
        fresh.push(part);
    }
    prom.db.commit_unit(token)?;
    Ok(fresh)
}

/// S2: delete the subtree previously inserted by S1.
pub fn raw_s2(raw: &RawDb, parent: Oid, subtree: &[Oid]) -> DbResult<()> {
    let mut parent_rec = raw.get(parent)?;
    parent_rec.children.retain(|c| !subtree.contains(c));
    raw.put(parent, &parent_rec)?;
    let mut txn = raw.store.begin();
    for &oid in subtree {
        txn.delete(oid);
    }
    txn.commit()?;
    Ok(())
}

/// S2 through the Prometheus layer (cascading edge removal, index cleanup).
pub fn prom_s2(prom: &PromDb, subtree: &[Oid]) -> DbResult<()> {
    let token = prom.db.begin_unit();
    for &oid in subtree {
        prom.db.delete_object(oid)?;
    }
    prom.db.commit_unit(token)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::BenchParams;

    #[test]
    fn raw_and_prom_traversals_agree_on_counts() {
        let raw = RawDb::build("ops-raw", BenchParams::SMALL).unwrap();
        let prom = PromDb::build("ops-prom", BenchParams::SMALL).unwrap();
        assert_eq!(raw_t1(&raw).unwrap(), prom_t1(&prom).unwrap());
        assert_eq!(raw_t3(&raw).unwrap(), prom_t3(&prom).unwrap());
        assert_eq!(raw_t2(&raw).unwrap(), prom_t2(&prom).unwrap());
        raw.cleanup();
        prom.cleanup();
    }

    #[test]
    fn queries_agree_between_builds() {
        let raw = RawDb::build("q-raw", BenchParams::SMALL).unwrap();
        let prom = PromDb::build("q-prom", BenchParams::SMALL).unwrap();
        // Q1: the first part's label exists exactly once in both builds.
        assert_eq!(raw_q1(&raw, "part-1").unwrap(), 1);
        assert_eq!(prom_q1(&prom, "part-1").unwrap(), 1);
        // Q2: both builds assign the same build_date distribution.
        assert_eq!(
            raw_q2(&raw, 1000, 1010).unwrap(),
            prom_q2(&prom, 1000, 1010).unwrap()
        );
        // Q4 equals the T1 count minus the root.
        assert_eq!(prom_q4(&prom).unwrap(), BenchParams::SMALL.node_count() - 1);
        // Q3: fanout of the first leaf assembly equals parts_per_leaf.
        assert_eq!(
            raw_q3(&raw, raw.assemblies[0]).unwrap(),
            BenchParams::SMALL.parts_per_leaf
        );
        assert_eq!(
            prom_q3(&prom, prom.assemblies[0]).unwrap(),
            BenchParams::SMALL.parts_per_leaf
        );
        // Q5: the whole design is reachable in context.
        assert_eq!(prom_q5(&prom).unwrap(), BenchParams::SMALL.node_count() - 1);
        // Q7: the downcast keeps exactly the atomic parts.
        assert_eq!(raw_q7(&raw).unwrap(), prom.parts.len());
        assert_eq!(prom_q7(&prom).unwrap(), prom.parts.len());
        // Q8: extracting the root's subtree captures every edge; the
        // temporary classification is dropped afterwards.
        let before = prom.db.classifications().unwrap().len();
        assert_eq!(
            prom_q8(&prom, prom.root).unwrap(),
            BenchParams::SMALL.edge_count()
        );
        assert_eq!(prom.db.classifications().unwrap().len(), before);
        // Q6: every part has exactly one containing assembly.
        assert_eq!(raw_q6(&raw, raw.parts[0]).unwrap(), 1);
        assert_eq!(prom_q6(&prom, prom.parts[0]).unwrap(), 1);
        raw.cleanup();
        prom.cleanup();
    }

    #[test]
    fn structural_modifications_round_trip() {
        let raw = RawDb::build("s-raw", BenchParams::SMALL).unwrap();
        let prom = PromDb::build("s-prom", BenchParams::SMALL).unwrap();
        let raw_before = raw_t1(&raw).unwrap();
        let prom_before = prom_t1(&prom).unwrap();

        let raw_parent = raw.assemblies[0];
        let fresh = raw_s1(&raw, raw_parent, 5).unwrap();
        assert_eq!(raw_t1(&raw).unwrap(), raw_before + 5);
        raw_s2(&raw, raw_parent, &fresh).unwrap();
        assert_eq!(raw_t1(&raw).unwrap(), raw_before);

        let prom_parent = prom.assemblies[0];
        let fresh = prom_s1(&prom, prom_parent, 5).unwrap();
        assert_eq!(prom_t1(&prom).unwrap(), prom_before + 5);
        prom_s2(&prom, &fresh).unwrap();
        assert_eq!(prom_t1(&prom).unwrap(), prom_before);
        raw.cleanup();
        prom.cleanup();
    }

    #[test]
    fn raw_perf_ops_do_what_they_say() {
        let raw = RawDb::build("rp-raw", BenchParams::SMALL).unwrap();
        let prom = PromDb::build("rp-prom", BenchParams::SMALL).unwrap();
        let r = raw_create(&raw, 10).unwrap();
        let p = prom_create(&prom, 10).unwrap();
        assert!(raw_lookup(&raw, &r).unwrap() > 0);
        assert!(prom_lookup(&prom, &p).unwrap() > 0);
        let before = raw_read_attr(&raw, &r).unwrap();
        raw_update_attr(&raw, &r).unwrap();
        assert_eq!(raw_read_attr(&raw, &r).unwrap(), before + 10);
        let before = prom_read_attr(&prom, &p).unwrap();
        prom_update_attr(&prom, &p).unwrap();
        assert_eq!(prom_read_attr(&prom, &p).unwrap(), before + 10);
        // Linking.
        raw_link(&raw, &[(raw.assemblies[0], r[0])]).unwrap();
        let rels = prom_link(&prom, &[(prom.assemblies[0], p[0])]).unwrap();
        assert_eq!(rels.len(), 1);
        raw.cleanup();
        prom.cleanup();
    }
}
