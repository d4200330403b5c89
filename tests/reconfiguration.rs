//! Runtime reconfiguration integration: device switches, crashes, and
//! the continuity guarantees of the state-handoff machinery.

use ubiqos::prelude::DeviceId;
use ubiqos_runtime::apps;
use ubiqos_runtime::{DomainServer, LinkKind};

fn audio_domain(preinstall: bool) -> DomainServer {
    let (env, links, props) = apps::audio_environment();
    let mut server = DomainServer::new(env, links, props);
    apps::register_audio_services(server.registry_mut());
    if preinstall {
        for d in 0..4 {
            for inst in ["audio-server@desktop1", "mpeg-player", "wav-player"] {
                server.repository_mut().preinstall(d, inst);
            }
        }
    }
    server
}

#[test]
fn roaming_pc_pda_pc_keeps_media_position() {
    let mut server = audio_domain(true);
    let session = server
        .start_session(
            "audio",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(1),
        )
        .unwrap();

    server.play(45.0);
    let to_pda = server
        .switch_device(session, DeviceId::from_index(2))
        .unwrap();
    assert_eq!(to_pda.resume_position_s(), 45.0);
    assert_eq!(to_pda.target_link, LinkKind::Wireless);

    server.play(30.0);
    let to_pc = server
        .switch_device(session, DeviceId::from_index(3))
        .unwrap();
    assert_eq!(to_pc.resume_position_s(), 75.0);
    assert!(
        to_pda.handoff_ms > to_pc.handoff_ms,
        "PC->PDA handoff ({}) longer than PDA->PC ({})",
        to_pda.handoff_ms,
        to_pc.handoff_ms
    );

    // QoS is back to 40 fps at every stop.
    let s = server.session(session).unwrap();
    assert_eq!(s.measured_qos()[0].fps, 40.0);
    assert_eq!(s.overhead_log.len(), 3);
}

#[test]
fn pda_leg_uses_transcoder_and_desktop_legs_do_not() {
    let mut server = audio_domain(true);
    let session = server
        .start_session(
            "audio",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(1),
        )
        .unwrap();
    let count_transcoders = |server: &DomainServer| {
        server
            .session(session)
            .unwrap()
            .configuration
            .app
            .graph
            .components()
            .filter(|(_, c)| c.name().contains("transcoder"))
            .count()
    };
    assert_eq!(count_transcoders(&server), 0, "desktop player speaks MPEG");
    server
        .switch_device(session, DeviceId::from_index(2))
        .unwrap();
    assert_eq!(
        count_transcoders(&server),
        1,
        "PDA needs the MPEG2WAV transcoder"
    );
    server
        .switch_device(session, DeviceId::from_index(3))
        .unwrap();
    assert_eq!(count_transcoders(&server), 0, "back on a desktop");
}

#[test]
fn downloads_happen_once_per_device() {
    let mut server = audio_domain(false); // nothing preinstalled
    let session = server
        .start_session(
            "audio",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(1),
        )
        .unwrap();
    let first_download = server.session(session).unwrap().overhead_log[0]
        .1
        .downloading_ms;
    assert!(first_download > 0.0);

    // Roam to the PDA and back to the ORIGINAL desktop: the second visit
    // downloads nothing new for the player.
    server
        .switch_device(session, DeviceId::from_index(2))
        .unwrap();
    let pda_download = server.session(session).unwrap().overhead_log[1]
        .1
        .downloading_ms;
    assert!(pda_download > 0.0, "wav player + its code reach the PDA");

    server
        .switch_device(session, DeviceId::from_index(1))
        .unwrap();
    let back_download = server.session(session).unwrap().overhead_log[2]
        .1
        .downloading_ms;
    assert_eq!(
        back_download, 0.0,
        "everything already installed on desktop2"
    );
}

#[test]
fn service_departure_breaks_then_replacement_heals() {
    let mut server = audio_domain(true);
    let session = server
        .start_session(
            "audio",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(1),
        )
        .unwrap();

    // The WAV player leaves the smart space; the PDA leg now fails.
    server.registry_mut().unregister("wav-player").unwrap();
    assert!(server
        .switch_device(session, DeviceId::from_index(2))
        .is_err());
    // The failed switch left the old configuration live on desktop2.
    let s = server.session(session).unwrap();
    assert_eq!(s.client_device, DeviceId::from_index(1));
    assert_eq!(s.measured_qos()[0].fps, 40.0);

    // A replacement player arrives; roaming works again.
    let mut registry = ubiqos::prelude::ServiceRegistry::new();
    apps::register_audio_services(&mut registry);
    let replacement = registry
        .discover_all(&ubiqos::prelude::DiscoveryQuery::new("audio-player"))
        .into_iter()
        .find(|d| d.descriptor.instance_id == "wav-player")
        .unwrap();
    server.registry_mut().register(replacement.descriptor);
    server.repository_mut().preinstall(2, "wav-player");
    assert!(server
        .switch_device(session, DeviceId::from_index(2))
        .is_ok());
}

#[test]
fn overhead_log_records_every_reconfiguration() {
    let mut server = audio_domain(true);
    let session = server
        .start_session(
            "audio",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(1),
        )
        .unwrap();
    server
        .switch_device(session, DeviceId::from_index(2))
        .unwrap();
    server
        .switch_device(session, DeviceId::from_index(3))
        .unwrap();

    // The session's own overhead log is the reconfiguration record: the
    // start and both portal switches, in order.
    let labels: Vec<&str> = server
        .session(session)
        .unwrap()
        .overhead_log
        .iter()
        .map(|(label, _)| label.as_ref())
        .collect();
    assert_eq!(labels, ["start", "switch d1 -> d2", "switch d2 -> d3"]);

    let stopped = server.stop_session(session).expect("live session stops");
    assert_eq!(stopped.overhead_log.len(), 3);
    assert!(server.session(session).is_none());
    assert_eq!(server.session_count(), 0);
}

#[test]
fn two_concurrent_sessions_share_the_space() {
    let mut server = audio_domain(true);
    let a = server
        .start_session(
            "audio-a",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(1),
        )
        .unwrap();
    let b = server
        .start_session(
            "audio-b",
            apps::audio_on_demand_app(),
            apps::audio_user_qos(),
            DeviceId::from_index(3),
        )
        .unwrap();
    assert_ne!(format!("{a}"), format!("{b}"));
    server.play(10.0);
    assert_eq!(server.session(a).unwrap().position_s, 10.0);
    assert_eq!(server.session(b).unwrap().position_s, 10.0);
    assert!(server.stop_session(a).is_some());
    assert!(server.session(b).is_some());
}
