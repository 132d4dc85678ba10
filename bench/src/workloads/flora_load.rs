//! `flora-load`: two wire clients bulk-import the `flora-L` checklist with
//! the ICBN rule set installed, family by family, in units of 64
//! operations. Fixed work, not fixed time: the number measured is how long
//! this import takes, so `--seconds` does not bound it.

use super::{final_checks, ladder_rows, reopen, Measured};
use crate::flora::{Flora, Group};
use crate::harness::{self, err, load_family, Dataset, Loaded, Res, Scratch, Wire, CLIENTS};
use crate::measure::{Kind, Phase, Tally};
use crate::queries::Stream;
use crate::report::{Config, Report};
use crate::wire::{Counters, ServerDelta};
use prometheus_db::Oid;
use prometheus_server::{PrometheusClient, ServerHandle};
use std::path::Path;
use std::time::Instant;

/// A fresh database behind a fresh server, classifications created, two
/// clients connected.
struct Target {
    server: ServerHandle,
    clients: Vec<PrometheusClient>,
    classifications: Vec<Oid>,
}

fn target(path: &Path, flora: &Flora) -> Res<Target> {
    let server = harness::boot(harness::open(path)?)?;
    let mut clients: Vec<PrometheusClient> = (0..CLIENTS)
        .map(|_| harness::connect(&server))
        .collect::<Res<_>>()?;
    let classifications = harness::create_classifications(flora, &mut Wire(&mut clients[0]))?;
    Ok(Target {
        server,
        clients,
        classifications,
    })
}

/// Import every family: client `i` takes families `i`, `i + CLIENTS`, ….
/// One operation is one unit of work (a batch, or a streamed unit of names
/// with their types).
fn import(target: &mut Target, flora: &Flora, traced: bool) -> Res<(Phase, Dataset)> {
    // Checklists are input, made before the clock starts.
    let checklists: Vec<Vec<Group>> = (0..flora.families.len())
        .map(|f| flora.checklist(f))
        .collect();
    let classifications = &target.classifications;
    let started = Instant::now();
    type Loads = Vec<(usize, Loaded)>;
    let results: Vec<Res<(Tally, Loads)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = target
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let checklists = &checklists;
                scope.spawn(move || {
                    harness::pin_client(i);
                    let mut tally = Tally::new(started, traced);
                    let mut loads = Vec::new();
                    for (f, groups) in checklists.iter().enumerate().skip(i).step_by(CLIENTS) {
                        let loaded = load_family(
                            groups,
                            classifications,
                            &mut Wire(client),
                            &mut |group, took| {
                                let began = Instant::now() - took;
                                let op = tally.next_op();
                                tally.spans.closed(span_name(group), op, began);
                                tally.op(Kind::Unit, began, Ok(()));
                            },
                        )?;
                        loads.push((f, loaded));
                    }
                    Ok((tally, loads))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = started.elapsed();
    let mut tallies = Vec::new();
    let mut families = vec![Loaded::default(); flora.families.len()];
    for result in results {
        let (tally, loads) = result?;
        tallies.push(tally);
        for (f, loaded) in loads {
            families[f] = loaded;
        }
    }
    let dataset = Dataset {
        flora: flora.clone(),
        classifications: target.classifications.clone(),
        families,
    };
    let mut phase = Phase::merge(tallies, elapsed);
    // Fixed work: the figure of merit is how long the whole import took.
    phase.ops_per_s = phase.mean_ops_per_s;
    Ok((phase, dataset))
}

fn span_name(group: &Group) -> &'static str {
    if group.streamed {
        "wire.streamed_unit"
    } else {
        "wire.unit_batch"
    }
}

fn finish(target: Target) -> Res<()> {
    for client in target.clients {
        client.close().map_err(err)?;
    }
    target.server.stop();
    Ok(())
}

pub fn run(cfg: &Config) -> Res<Report> {
    let shape = cfg.large();
    let flora = Flora::generate(shape, cfg.seed);
    let units: usize = (0..shape.families).map(|f| flora.checklist(f).len()).sum();
    let mut report = Report {
        workload: "flora-load",
        sizes: vec![
            ("objects", shape.objects() as u64),
            ("relationships", shape.relationships() as u64),
            (
                "classification_edges",
                (shape.edges_per_classification() * shape.classifications()) as u64,
            ),
            ("units", units as u64),
            ("ops_per_unit", crate::flora::BATCH as u64),
            ("flora_fingerprint", flora.fingerprint()),
            ("checklist_fingerprint", flora.checklist_fingerprint()),
            ("clients", CLIENTS as u64),
        ],
        ..Report::default()
    };
    let scratch = Scratch::new("flora-load")?;

    // Set-up: server boot + warm-up. The warm-up is one full pass of the
    // same import at `flora-S` size, into a database of its own.
    let setup = Instant::now();
    let warm_flora = Flora::generate(cfg.small(), cfg.seed ^ 0x5eed);
    let mut warm = target(&scratch.path("warm.db"), &warm_flora)?;
    import(&mut warm, &warm_flora, false)?;
    finish(warm)?;
    let path = scratch.path("flora.db");
    let mut main = target(&path, &flora)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let before = Counters::read(&mut main.clients[0])?;
    let (untraced, dataset) = import(&mut main, &flora, false)?;
    let after = Counters::read(&mut main.clients[0])?;
    finish(main)?;

    // A traced run imports the same checklist again, into a second
    // database, with the span recorder on.
    let traced = if cfg.traced {
        let mut second = target(&scratch.path("traced.db"), &flora)?;
        let (phase, _) = import(&mut second, &flora, true)?;
        finish(second)?;
        Some(phase)
    } else {
        None
    };

    let expected = harness::expected_counts(&flora);
    let first = Stream::new(&flora, "reopen", None).taxon_by_name();
    let (reopen_s, db) = reopen(cfg, &path, &first)?;
    final_checks(&db, &flora, &expected, None, &mut report.problems);

    let ladder = ladder_rows(cfg, "flora-load", &traced, db, &path, &dataset, None)?;
    let committed_units = untraced.attempted - untraced.failed;
    Measured {
        setup_s,
        untraced,
        storage: after.storage.since(&before.storage),
        committed_units,
        server: Some(ServerDelta::between(&before.server, &after.server)),
        traced,
        reopen_s,
    }
    .into_report(&mut report, ladder);
    Ok(report)
}
