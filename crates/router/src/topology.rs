//! The versioned shard topology a router serves.
//!
//! A topology is a plain JSON document — written by an operator or a
//! deploy script, read at router start (and served back verbatim at
//! `GET /topology`):
//!
//! ```json
//! {
//!   "version": 3,
//!   "key_dims": 1,
//!   "shards": [
//!     {"id": "s0", "addr": "127.0.0.1:9001", "replica": "127.0.0.1:9003"},
//!     {"id": "s1", "addr": "127.0.0.1:9002"}
//!   ]
//! }
//! ```
//!
//! `version` is a monotone number operators bump on every change, so
//! two routers can tell whose view is newer; `key_dims` is the number
//! of leading schema dimensions in a placement key (it must match the
//! `--shard-id`/partition assignment the shards were started with —
//! the deterministic [`crate::placement`] function maps key →
//! shard id on any process that agrees on these two facts).

use fdc_codec::json::{self, Writer};

/// One shard of the deployment: a stable id (the rendezvous hash
/// input — never reuse an id for different data), its primary address
/// and an optional read replica to fail reads over to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable shard identity, e.g. `"s0"`.
    pub id: String,
    /// Primary `host:port`.
    pub addr: String,
    /// Optional follower `host:port` serving reads when the primary
    /// is down.
    pub replica: Option<String>,
}

/// A parsed topology document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Operator-bumped monotone version.
    pub version: u64,
    /// Leading schema dimensions per placement key (0 = every
    /// dimension, one key per base cell).
    pub key_dims: usize,
    /// The shard set, in document order.
    pub shards: Vec<ShardSpec>,
}

impl Topology {
    /// Parses a topology JSON document, validating ids are unique and
    /// non-empty.
    pub fn parse(text: &str) -> Result<Topology, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("version")
            .and_then(json::Value::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .ok_or("topology needs an unsigned integer \"version\"")? as u64;
        let key_dims =
            doc.get("key_dims")
                .and_then(json::Value::as_f64)
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .ok_or("topology needs an unsigned integer \"key_dims\"")? as usize;
        let shards_doc = doc
            .get("shards")
            .and_then(json::Value::as_array)
            .ok_or("topology needs a \"shards\" array")?;
        if shards_doc.is_empty() {
            return Err("topology needs at least one shard".into());
        }
        let mut shards = Vec::with_capacity(shards_doc.len());
        for s in shards_doc {
            let id = s
                .get("id")
                .and_then(json::Value::as_str)
                .filter(|i| !i.is_empty())
                .ok_or("every shard needs a non-empty \"id\"")?
                .to_string();
            let addr = s
                .get("addr")
                .and_then(json::Value::as_str)
                .filter(|a| !a.is_empty())
                .ok_or("every shard needs a non-empty \"addr\"")?
                .to_string();
            let replica = s
                .get("replica")
                .and_then(json::Value::as_str)
                .map(str::to_string);
            if shards.iter().any(|prev: &ShardSpec| prev.id == id) {
                return Err(format!("duplicate shard id {id:?}"));
            }
            shards.push(ShardSpec { id, addr, replica });
        }
        Ok(Topology {
            version,
            key_dims,
            shards,
        })
    }

    /// Reads and parses a topology file.
    pub fn load(path: &std::path::Path) -> Result<Topology, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read topology {}: {e}", path.display()))?;
        Topology::parse(&text)
    }

    /// Renders the canonical JSON form (reparses to an equal value).
    pub fn encode(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("version").u64(self.version);
        w.key("key_dims").usize(self.key_dims);
        w.key("shards").begin_array();
        for s in &self.shards {
            w.begin_object().key("id").str(&s.id);
            w.key("addr").str(&s.addr);
            if let Some(replica) = &s.replica {
                w.key("replica").str(replica);
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// The base cells of `db` this topology's placement assigns to
    /// `shard_id` — what a shard process passes to
    /// `F2db::with_base_partition` (or `ServeOptions::partition_bases`)
    /// so engine-side residency and router-side placement agree.
    pub fn owned_bases(
        &self,
        db: &fdc_f2db::F2db,
        shard_id: &str,
    ) -> Result<Vec<fdc_cube::NodeId>, String> {
        let bases: Vec<fdc_cube::NodeId> = db.dataset().graph().base_nodes().to_vec();
        let mut owned = Vec::new();
        for b in bases {
            let key = db
                .partition_key(b, self.key_dims)
                .map_err(|e| e.to_string())?;
            if self.place(&key).id == shard_id {
                owned.push(b);
            }
        }
        Ok(owned)
    }

    /// The shard a placement key lands on (rendezvous over the ids).
    pub fn place(&self, key: &str) -> &ShardSpec {
        &self.shards[self.owner(key)]
    }

    /// [`Topology::place`], as the shard's index in [`Topology::shards`].
    pub fn owner(&self, key: &str) -> usize {
        let id = crate::placement::place(key, self.shards.iter().map(|s| s.id.as_str()))
            .expect("a parsed topology has at least one shard");
        self.shards
            .iter()
            .position(|s| s.id == id)
            .expect("placement returns an existing id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_encode_round_trips() {
        let text = r#"{"version": 7, "key_dims": 1, "shards": [
            {"id": "s0", "addr": "127.0.0.1:9001", "replica": "127.0.0.1:9003"},
            {"id": "s1", "addr": "127.0.0.1:9002"}
        ]}"#;
        let topo = Topology::parse(text).unwrap();
        assert_eq!(topo.version, 7);
        assert_eq!(topo.key_dims, 1);
        assert_eq!(topo.shards.len(), 2);
        assert_eq!(topo.shards[0].replica.as_deref(), Some("127.0.0.1:9003"));
        assert_eq!(topo.shards[1].replica, None);
        assert_eq!(Topology::parse(&topo.encode()).unwrap(), topo);
    }

    #[test]
    fn parse_rejects_bad_documents() {
        for bad in [
            "{}",
            r#"{"version":1,"key_dims":1,"shards":[]}"#,
            r#"{"version":1,"key_dims":1,"shards":[{"id":"","addr":"a"}]}"#,
            r#"{"version":1,"key_dims":1,"shards":[{"id":"s0","addr":"a"},{"id":"s0","addr":"b"}]}"#,
            r#"{"version":-1,"key_dims":1,"shards":[{"id":"s0","addr":"a"}]}"#,
        ] {
            assert!(Topology::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn topology_place_is_deterministic() {
        let topo = Topology::parse(
            r#"{"version":1,"key_dims":1,"shards":[
                {"id":"s0","addr":"a"},{"id":"s1","addr":"b"},{"id":"s2","addr":"c"}]}"#,
        )
        .unwrap();
        for key in ["Germany", "France", "Italy", "Spain"] {
            assert_eq!(topo.place(key).id, topo.place(key).id);
        }
    }
}
