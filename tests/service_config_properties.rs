//! Hostile input for `aeond`'s config reader: whatever the bytes,
//! `ServiceConfig::parse` returns a config or an `AeonError::Config`, never
//! a panic.  5 000 seeded cases per property in an optimised build, 64 in a
//! debug one.

use aeon::config::ServiceConfig;
use aeon_types::AeonError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A valid config that sets every key.
const CONFIG: &str = "# aeond\n[deployment]\nbackend = \"clu\\u0073ter\"\nservers = 3\n\
                      worker_threads = 2\ntransport = \"tcp-loopback\"\n\n[admin]\n\
                      listen = \"127.0.0.1:9464\" # admin\npush_interval_ms = 250\n\n\
                      [workload]\ncontexts = 4\nevents = 1_000\n";

fn cases() -> usize {
    if cfg!(debug_assertions) {
        64
    } else {
        5_000
    }
}

fn parses_or_refuses(bytes: &[u8]) {
    match ServiceConfig::parse(&String::from_utf8_lossy(bytes)) {
        Ok(_) | Err(AeonError::Config(_)) => {}
        Err(other) => panic!("{other:?} for {bytes:?}"),
    }
}

#[test]
fn arbitrary_bytes_give_a_config_or_a_config_error() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..cases() {
        let len = rng.gen_range(0..256usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        parses_or_refuses(&bytes);
    }
}

#[test]
fn every_truncation_with_any_byte_replaced_gives_a_config_or_a_config_error() {
    let config = ServiceConfig::parse(CONFIG).unwrap();
    assert_eq!(config.workload.map(|w| w.events), Some(1_000));
    assert_eq!(config.deployment.backend, aeon::Backend::Cluster);
    ServiceConfig::parse(include_str!("../examples/aeond.toml")).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..cases() {
        let (at, byte): (u64, u8) = (rng.gen(), rng.gen());
        for end in 0..=CONFIG.len() {
            let mut bytes = CONFIG.as_bytes()[..end].to_vec();
            parses_or_refuses(&bytes);
            if end > 0 {
                bytes[at as usize % end] = byte;
                parses_or_refuses(&bytes);
            }
        }
    }
}
