//! `point-reads` and `closure-scans`: two wire clients querying a static
//! flora. They share every line but the dataset size and the query mix —
//! the same read path used as point lookup on a dataset larger than the
//! object cache, and as range/scan on one that fits.

use super::{final_checks, ladder_rows, reopen, Measured};
use crate::flora::Flora;
use crate::harness::{self, err, Res, Scratch};
use crate::measure::{Kind, Tally};
use crate::queries::{Query, Stream};
use crate::report::{Config, Report};
use crate::wire::{run_phase, Counters, ServerDelta, Until};
use prometheus_server::PrometheusClient;
use std::time::Instant;

/// Send one query, check its answer, tally it. A remote error is a failed
/// operation; a transport error ends the run.
pub fn ask(client: &mut PrometheusClient, query: &Query, tally: &mut Tally) -> Res<()> {
    let began = Instant::now();
    let op = tally.next_op();
    let answer = tally
        .spans
        .record(query.class, op, || client.query(&query.text));
    let outcome = match answer {
        Ok(rows) => query
            .expect
            .check(&rows)
            .map_err(|e| format!("{}: {e}", query.text)),
        Err(e) if harness::is_remote(&e) => Err(format!("{}: {e}", query.text)),
        Err(e) => return Err(err(e)),
    };
    tally.op(Kind::Query, began, outcome);
    Ok(())
}

pub fn run(
    cfg: &Config,
    name: &'static str,
    shape: crate::flora::Shape,
    clients: usize,
    pick: fn(&mut Stream) -> Query,
) -> Res<Report> {
    let mut report = Report {
        workload: name,
        sizes: vec![
            ("objects", shape.objects() as u64),
            ("relationships", shape.relationships() as u64),
            ("classifications", shape.classifications() as u64),
            ("clients", clients as u64),
        ],
        ..Report::default()
    };

    // Set-up: dataset build + server boot + warm-up.
    let setup = Instant::now();
    let scratch = Scratch::new(name)?;
    let path = scratch.path("flora.db");
    let db = harness::open(&path)?;
    let dataset = harness::build(&db, Flora::generate(shape, cfg.seed))?;
    report
        .sizes
        .push(("flora_fingerprint", dataset.flora.fingerprint()));
    let expected = harness::expected_counts(&dataset.flora);
    let server = harness::boot(db)?;
    let flora = &dataset.flora;
    let mut clients: Vec<(PrometheusClient, Stream)> = (0..clients)
        .map(|i| {
            Ok((
                harness::connect(&server)?,
                Stream::new(flora, &format!("{name}/client-{i}"), None),
            ))
        })
        .collect::<Res<_>>()?;
    let body = |_: usize, c: &mut (PrometheusClient, Stream), until: &Until, t: &mut Tally| {
        while !until.over() {
            let query = pick(&mut c.1);
            ask(&mut c.0, &query, t)?;
        }
        Ok(())
    };
    let warm = run_phase(&mut clients, Until::after(cfg.warm_seconds()), false, body)?;
    report.problems.extend(warm.problems);
    let setup_s = setup.elapsed().as_secs_f64();

    // Measured, tracing off; then, in a traced run, measured again traced.
    let before = Counters::read(&mut clients[0].0)?;
    let untraced = run_phase(&mut clients, Until::after(cfg.seconds), false, body)?;
    let after = Counters::read(&mut clients[0].0)?;
    let traced = match cfg.traced {
        true => Some(run_phase(
            &mut clients,
            Until::after(cfg.seconds),
            true,
            body,
        )?),
        false => None,
    };

    // Stop, reopen, check.
    for (client, _) in clients {
        client.close().map_err(err)?;
    }
    server.stop();
    let first = Stream::new(flora, "reopen", None).taxon_by_name();
    let (reopen_s, db) = reopen(cfg, &path, &first)?;
    final_checks(&db, flora, &expected, None, &mut report.problems);

    let ladder = ladder_rows(cfg, name, &traced, db, &path, &dataset, None)?;
    Measured {
        setup_s,
        untraced,
        storage: after.storage.since(&before.storage),
        committed_units: 0,
        server: Some(ServerDelta::between(&before.server, &after.server)),
        traced,
        reopen_s,
    }
    .into_report(&mut report, ladder);
    Ok(report)
}
