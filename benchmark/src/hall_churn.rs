//! `hall_churn`: adaptation under arrival, roaming and departure.
//!
//! Set-up: two federated hall bases; hall A publishes a three-package
//! catalog through `publish_extension`, which anti-entropy replicates
//! to hall B; the devices are parked out of every radio's range. Timed
//! phase: every two simulated seconds a wave of devices enters hall A;
//! two waves later it roams to hall B, and two waves after that it
//! leaves. Admission at A (signature check, the four analysis passes,
//! weave) runs beside adoption at B (a grant rebind, nothing
//! re-delivered) and departure (unweave after the lease lapses).

use crate::layers::{self, LayerInput, Snap};
use crate::spans::Spans;
use crate::stats;
use crate::world::{self, SEC, STEP_NS};
use crate::{Check, Episode, Size};
use pmp_core::{BaseId, MobId, Platform};
use pmp_midas::BaseEvent;
use pmp_net::Position;
use std::time::Instant;

/// Simulated time between waves.
const WAVE_NS: u64 = 2 * SEC;

/// Simulated time every set-up pumps: hall B holds the catalog after
/// 100 ms whatever the seed.
const SETUP_NS: u64 = SEC;

/// `(devices, devices per wave)`.
fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (1_024, 32),
        Size::Tiny => (24, 4),
    }
}

/// Where device `i` waits before arriving (`side = 1`) or after leaving
/// (`side = -1`): a grid far out of every radio's range.
fn parked(i: usize, side: f64) -> Position {
    Position::new(
        side * (3_000.0 + (i % 32) as f64 * 200.0),
        side * (3_000.0 + (i / 32) as f64 * 200.0),
    )
}

/// Where a device is in its visit.
#[derive(Debug, Clone, Copy)]
enum Visit {
    Parked,
    /// Entered hall A at sim time `at`, wall instant `wall`.
    Entering {
        at: u64,
        wall: Instant,
    },
    AdaptedAtA,
    /// Moved to hall B, not yet adopted there.
    Roaming,
    AdoptedAtB,
    Departed,
}

/// Extensions hall B re-delivered (anything but in-place rebinds).
fn redeliveries(p: &Platform, b: BaseId) -> usize {
    p.base(b)
        .events
        .iter()
        .map(|e| match e {
            BaseEvent::NodeDiscovered { delivered, .. }
            | BaseEvent::NodeMigrated { delivered, .. } => *delivered,
            _ => 0,
        })
        .sum()
}

/// Runs one `hall_churn` episode.
pub fn episode(seed: u64, size: Size, spans: &mut Spans, setup_only: bool) -> Episode {
    let (n, wave) = shape(size);
    let waves = n / wave;
    let mut ep = Episode::default();
    let mut rng = stats::rng(seed, 3);

    // ---- set-up -------------------------------------------------------
    let t_setup = Instant::now();
    let mut p = Platform::new(seed);
    let a = world::hall_a(&mut p);
    let b = world::hall_b(&mut p);
    p.federate_bases(a, b);
    let catalog = [
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        pmp_extensions::access_control::package(
            "* DrawingService.*(..)",
            &[world::OPERATOR, "operator:2"],
            1,
        ),
        pmp_extensions::billing::package("* Motor.*(..)", 2, 1),
    ];
    let ids: Vec<String> = catalog.iter().map(|pkg| pkg.meta.id.clone()).collect();
    for pkg in &catalog {
        spans.time("publish_extension", 0, || p.publish_extension(a, pkg));
    }
    let policy = p.trusting_policy(&[a, b], world::cap());
    let devices: Vec<MobId> = (0..n)
        .map(|i| {
            p.add_device(
                &format!("pda:{i}"),
                parked(i, 1.0),
                world::RANGE,
                policy.clone(),
            )
            .expect("device")
        })
        .collect();
    let twin = world::add_twin(&mut p);
    let ready = world::pump_for(&mut p, SETUP_NS, 60 * SEC, |p| {
        ids.iter()
            .all(|id| p.base(b).base.catalog.get(id).is_some())
    });
    ep.setup_sim_ms = ready.unwrap_or(0) as f64 / 1e6;
    let in_a: Vec<Position> = (0..n)
        .map(|_| {
            Position::new(
                stats::float(&mut rng, 5.0, 55.0),
                stats::float(&mut rng, 5.0, 55.0),
            )
        })
        .collect();
    let in_b: Vec<Position> = (0..n)
        .map(|_| {
            Position::new(
                stats::float(&mut rng, 155.0, 205.0),
                stats::float(&mut rng, 5.0, 55.0),
            )
        })
        .collect();
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    ep.checks.push(Check::new(
        "catalog replicated to hall B before timing",
        ready.is_some(),
        format!("{} extensions", ids.len()),
    ));
    if setup_only {
        return ep;
    }

    // ---- timed phase ----------------------------------------------------
    let mut mobs = devices.clone();
    mobs.push(twin);
    let before = spans.on().then(|| Snap::take(&p, &[a, b], &mobs));
    let redelivered0 = redeliveries(&p, b);
    let mut visit = vec![Visit::Parked; n];
    let (mut not_adapted, mut not_adopted) = (0u64, 0u64);
    let steps_per_wave = WAVE_NS / STEP_NS;
    let t_timed = Instant::now();
    for tick in 0..waves + 4 {
        // Departures, then roams, then arrivals, each a whole wave.
        if let Some(w) = tick.checked_sub(4).filter(|&w| w < waves) {
            for i in w * wave..(w + 1) * wave {
                not_adopted += u64::from(!matches!(visit[i], Visit::AdoptedAtB));
                let dev = devices[i];
                spans.time("move_node", i as u64 + 1, || {
                    p.move_node(dev, parked(i, -1.0))
                });
                visit[i] = Visit::Departed;
            }
        }
        if let Some(w) = tick.checked_sub(2).filter(|&w| w < waves) {
            for i in w * wave..(w + 1) * wave {
                not_adapted += u64::from(!matches!(visit[i], Visit::AdaptedAtA));
                let dev = devices[i];
                spans.time("move_node", i as u64 + 1, || p.move_node(dev, in_b[i]));
                visit[i] = Visit::Roaming;
            }
        }
        if tick < waves {
            for i in tick * wave..(tick + 1) * wave {
                let dev = devices[i];
                let (at, wall) = (p.now().0, Instant::now());
                spans.time("move_node", i as u64 + 1, || p.move_node(dev, in_a[i]));
                visit[i] = Visit::Entering { at, wall };
            }
        }
        let active = tick.saturating_sub(3) * wave..((tick + 1).min(waves) * wave);
        for _ in 0..steps_per_wave {
            let t0 = Instant::now();
            p.pump(STEP_NS);
            let t1 = Instant::now();
            spans.record("pump", 0, t0, t1);
            ep.pump_ms.push((t1 - t0).as_nanos() as f64 / 1e6);
            for i in active.clone() {
                match visit[i] {
                    Visit::Entering { at, wall } if world::holds_all(&p, devices[i], &ids, a) => {
                        ep.op_us.push(wall.elapsed().as_nanos() as f64 / 1e3);
                        ep.sim_ms.push((p.now().0 - at) as f64 / 1e6);
                        ep.completed += 1;
                        visit[i] = Visit::AdaptedAtA;
                    }
                    Visit::Roaming if world::holds_all(&p, devices[i], &ids, b) => {
                        visit[i] = Visit::AdoptedAtB;
                    }
                    _ => {}
                }
            }
        }
    }
    ep.timed_s = t_timed.elapsed().as_secs_f64();

    // Settle: departed devices drop their extensions once leases lapse.
    let emptied = world::pump_until(&mut p, 60 * SEC, |p| {
        devices
            .iter()
            .all(|&d| p.node(d).receiver.installed_ids().is_empty())
    });
    ep.digests = (p.trace_digest(), p.journal_digest());
    let left_over = devices
        .iter()
        .filter(|&&d| !p.node(d).receiver.installed_ids().is_empty())
        .count() as u64;
    ep.attempted = n as u64;
    ep.failed = not_adapted + not_adopted + left_over;

    // ---- checks ---------------------------------------------------------
    ep.checks.push(Check::new(
        "every arrival adapted at A",
        not_adapted == 0 && ep.completed == n as u64,
        format!("{} of {n} adapted before roaming", n as u64 - not_adapted),
    ));
    ep.checks.push(Check::new(
        "every arrival adopted at B",
        not_adopted == 0,
        format!("{} of {n} adopted before leaving", n as u64 - not_adopted),
    ));
    let redelivered = redeliveries(&p, b) - redelivered0;
    ep.checks.push(Check::new(
        "hall B re-delivers nothing",
        redelivered == 0,
        format!("{redelivered} re-deliveries"),
    ));
    ep.checks.push(Check::new(
        "every installed set empty after departure",
        emptied && left_over == 0,
        format!("{left_over} devices still hold extensions"),
    ));

    if let Some(before) = before {
        let after = Snap::take(&p, &[a, b], &mobs);
        let base_call_us = world::base_call_us(&mut p, twin, seed, 20_000);
        let store_records = p.base(a).store.len() as u64;
        let disk_bytes = world::disk_bytes(&p, &[a, b]);
        let (checkpoint_ms, recover_ms, survived) = world::checkpoint_and_recover(&mut p, a, spans);
        ep.checks.push(Check::new(
            "store survives crash and restart",
            survived,
            format!("{store_records} records"),
        ));
        let input = LayerInput {
            ops: ep.completed,
            attempted: n as u64,
            steps: ep.pump_ms.len() as u64,
            base_call_us,
            store_records,
            disk_bytes,
            checkpoint_ms,
            recover_ms,
            ..LayerInput::default()
        };
        ep.layers = layers::compute(&before, &after, &input, spans);
        ep.telemetry = p.telemetry().to_json_lines();
    }
    ep
}
