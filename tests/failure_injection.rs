//! Failure injection: the platform must ride out the realities the
//! paper's wireless setting implies — message loss, base-station
//! outages, and network partitions.

use pmp::crypto::{KeyPair, Principal};
use pmp::discovery::Registrar;
use pmp::extensions;
use pmp::midas::{AdaptationService, ExtensionBase, ReceiverPolicy, SignedExtension};
use pmp::net::prelude::*;
use pmp::net::LinkModel;
use pmp::prose::Prose;
use pmp::vm::prelude::*;

const SEC: u64 = 1_000_000_000;

struct World {
    sim: Simulator,
    base_node: NodeId,
    registrar: Registrar,
    base: ExtensionBase,
    robot_node: NodeId,
    vm: Vm,
    prose: Prose,
    receiver: AdaptationService,
    telemetry: pmp::telemetry::Shared,
}

fn world_with_link(seed: u64, link: LinkModel) -> World {
    let telemetry = pmp::telemetry::Shared::new();
    let mut sim = Simulator::with_link(seed, link);
    sim.attach_telemetry(&telemetry);
    let base_node = sim.add_node("base", Position::new(0.0, 0.0), 80.0);
    let robot_node = sim.add_node("robot", Position::new(10.0, 0.0), 80.0);
    let mut registrar = Registrar::new(base_node, "lookup");
    registrar.attach_telemetry(&telemetry);
    registrar.start(&mut sim);
    let mut base = ExtensionBase::new(base_node, base_node);
    base.attach_telemetry(&telemetry);
    base.start(&mut sim);

    let authority = KeyPair::from_seed(b"authority");
    let pkg = extensions::billing::package("* Motor.*(..)", 1, 1);
    base.catalog
        .put(SignedExtension::seal("authority", &authority, &pkg));

    let mut policy = ReceiverPolicy::new();
    policy
        .trust
        .add(Principal::new("authority", authority.public_key()));
    policy.set_signer_cap("authority", Permissions::none().with(Permission::Net));

    let mut vm = Vm::new(VmConfig::default());
    let prose = Prose::attach(&mut vm);
    let mut receiver = AdaptationService::new(robot_node, "robot", policy);
    receiver.attach_telemetry(&telemetry);
    receiver.start(&mut sim);

    World {
        sim,
        base_node,
        registrar,
        base,
        robot_node,
        vm,
        prose,
        receiver,
        telemetry,
    }
}

fn pump(w: &mut World, ns: u64) {
    let until = w.sim.now().plus(ns);
    loop {
        match w.sim.peek_next() {
            Some(t) if t <= until => {
                w.sim.step();
            }
            _ => break,
        }
        for inc in w.sim.drain_inbox(w.base_node) {
            w.registrar.handle(&mut w.sim, &inc);
            w.base.handle(&mut w.sim, &inc);
        }
        for inc in w.sim.drain_inbox(w.robot_node) {
            w.receiver
                .handle(&mut w.sim, &mut w.vm, &w.prose, &inc);
        }
    }
}

#[test]
fn adaptation_succeeds_over_a_lossy_radio() {
    // 20 % message loss: announcements, registrations, deliveries, and
    // acks all get dropped sometimes. Periodic retries (announce, scan,
    // renew) must still converge.
    let mut w = world_with_link(91, LinkModel::lossy(0.20));
    pump(&mut w, 30 * SEC);
    assert!(
        w.receiver.is_installed("ext/billing"),
        "installed despite 20% loss: {:?}",
        w.receiver.installed_ids()
    );
    assert!(
        w.sim.trace.stats().dropped_loss > 0,
        "the link really was lossy ({} drops)",
        w.sim.trace.stats().dropped_loss
    );
    // And it stays alive: renewals are also lossy but redundant.
    pump(&mut w, 30 * SEC);
    assert!(w.receiver.is_installed("ext/billing"));

    // The telemetry mirror saw the same lossy world as the legacy
    // counters, and the install survived at least one rejection-free
    // delivery pipeline.
    let stats = w.sim.trace.stats();
    assert_eq!(
        w.telemetry.counter_value("net.sim.dropped_loss"),
        stats.dropped_loss
    );
    assert_eq!(w.telemetry.counter_value("net.sim.delivered"), stats.delivered);
    assert!(w.telemetry.counter_value("midas.receiver.installed") >= 1);
    println!("{}", w.telemetry.render_table());
}

#[test]
fn base_outage_revokes_extensions_and_recovery_readapts() {
    let mut w = world_with_link(92, LinkModel::ideal());
    pump(&mut w, 6 * SEC);
    assert!(w.receiver.is_installed("ext/billing"));

    // The base station crashes (radio off): no more lease renewals.
    w.sim.set_online(w.base_node, false);
    pump(&mut w, 15 * SEC);
    assert!(
        !w.receiver.is_installed("ext/billing"),
        "extensions evaporated during the outage"
    );

    // The base comes back: the robot re-advertises and is re-adapted.
    w.sim.set_online(w.base_node, true);
    pump(&mut w, 15 * SEC);
    assert!(
        w.receiver.is_installed("ext/billing"),
        "re-adapted after recovery: {:?}",
        w.receiver.installed_ids()
    );
}

#[test]
fn partition_heals_like_mobility() {
    let mut w = world_with_link(93, LinkModel::ideal());
    pump(&mut w, 6 * SEC);
    assert!(w.receiver.is_installed("ext/billing"));

    w.sim.partition(w.base_node, w.robot_node);
    pump(&mut w, 15 * SEC);
    assert!(!w.receiver.is_installed("ext/billing"));

    w.sim.heal(w.base_node, w.robot_node);
    pump(&mut w, 15 * SEC);
    assert!(w.receiver.is_installed("ext/billing"));
}
