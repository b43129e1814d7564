//! The shard count the sharded differential suites replay at.

/// Number of shards requested via the `BASRPT_SHARDS` environment
/// variable (default 1, i.e. the unsharded single-bin path — which still
/// goes through the deterministic merge).
pub fn shards_from_env() -> usize {
    parse_shards(std::env::var("BASRPT_SHARDS").ok().as_deref())
}

/// `BASRPT_SHARDS`'s value as a shard count: a positive integer
/// (surrounding whitespace allowed), anything else — an unset variable
/// included — reads as 1.
pub fn parse_shards(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}
