//! User sandboxes (§III-A, Fig. 3 step (d)).
//!
//! "The resulting data can be uploaded to a user-controlled area called
//! a sandbox, which is only visible to the creator and selected
//! collaborators. ... At any point (e.g., after a publication or a
//! patent filing), the user can allow the data to become publicly
//! disseminated." The paper lists this as the envisioned next step; we
//! implement it as documents carrying `owner` / `collaborators` /
//! `is_public` fields filtered through [`crate::auth::visibility_filter`].

use crate::auth::visibility_filter;
use mp_docstore::{Database, Docs, Result, StoreError};
use serde_json::{json, Value};

/// Sandbox operations over the shared datastore.
pub struct Sandbox<'a> {
    db: &'a Database,
}

impl<'a> Sandbox<'a> {
    /// Wrap a database.
    pub fn new(db: &'a Database) -> Self {
        Sandbox { db }
    }

    /// Upload a record into the owner's sandbox (private by default).
    pub fn upload(&self, owner: &str, mut doc: Value) -> Result<Value> {
        let obj = doc
            .as_object_mut()
            .ok_or_else(|| StoreError::InvalidDocument("sandbox record must be object".into()))?;
        obj.insert("owner".into(), json!(owner));
        obj.insert("is_public".into(), json!(false));
        obj.entry("collaborators").or_insert(json!([]));
        self.db.collection("sandbox").insert_one(doc)
    }

    /// Reject non-scalar record ids before they are interpolated into a
    /// filter. Without this, a caller-supplied object like
    /// `{"$ne": null}` would become an operator inside the
    /// `{"_id": …, "owner": …}` filter and match *every* record the
    /// owner has — turning `share`/`publish` into bulk operations on
    /// documents the caller never named.
    pub fn scalar_only(record_id: &Value) -> Result<&Value> {
        match record_id {
            Value::String(_) | Value::Number(_) => Ok(record_id),
            other => Err(StoreError::BadQuery(format!(
                "record id must be a scalar, got {other}"
            ))),
        }
    }

    /// Share a record with a collaborator.
    pub fn share(&self, owner: &str, record_id: &Value, collaborator: &str) -> Result<bool> {
        let id = Self::scalar_only(record_id)?;
        let r = self.db.collection("sandbox").update_one(
            &json!({"_id": id, "owner": owner}),
            &json!({"$addToSet": {"collaborators": collaborator}}),
        )?;
        Ok(r.matched == 1)
    }

    /// Publish: flip the record public (Fig. 3 step (f)). Only the
    /// owner may do this.
    pub fn publish(&self, owner: &str, record_id: &Value) -> Result<bool> {
        let id = Self::scalar_only(record_id)?;
        let r = self.db.collection("sandbox").update_one(
            &json!({"_id": id, "owner": owner}),
            &json!({"$set": {"is_public": true}}),
        )?;
        Ok(r.matched == 1)
    }

    /// Everything `viewer` may see (None = anonymous public view).
    pub fn visible_to(&self, viewer: Option<&str>) -> Result<Docs> {
        self.db
            .collection("sandbox")
            .find(&visibility_filter(viewer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_by_default() {
        let db = Database::new();
        let sb = Sandbox::new(&db);
        let id = sb.upload("alice@x", json!({"formula": "LiNiO2"})).unwrap();
        assert!(sb.visible_to(None).unwrap().is_empty());
        assert_eq!(sb.visible_to(Some("alice@x")).unwrap().len(), 1);
        assert!(sb.visible_to(Some("bob@x")).unwrap().is_empty());
        let _ = id;
    }

    #[test]
    fn share_grants_collaborator_access() {
        let db = Database::new();
        let sb = Sandbox::new(&db);
        let id = sb.upload("alice@x", json!({"formula": "LiNiO2"})).unwrap();
        assert!(sb.share("alice@x", &id, "bob@x").unwrap());
        assert_eq!(sb.visible_to(Some("bob@x")).unwrap().len(), 1);
        assert!(sb.visible_to(Some("carol@x")).unwrap().is_empty());
    }

    #[test]
    fn only_owner_can_share_or_publish() {
        let db = Database::new();
        let sb = Sandbox::new(&db);
        let id = sb.upload("alice@x", json!({"d": 1})).unwrap();
        assert!(!sb.share("mallory@x", &id, "mallory@x").unwrap());
        assert!(!sb.publish("mallory@x", &id).unwrap());
        assert!(sb.visible_to(None).unwrap().is_empty());
    }

    #[test]
    fn operator_injection_in_record_id_rejected() {
        let db = Database::new();
        let sb = Sandbox::new(&db);
        sb.upload("alice@x", json!({"d": 1})).unwrap();
        sb.upload("alice@x", json!({"d": 2})).unwrap();
        // `{"$ne": null}` as a record id would match every record the
        // owner has; it must be rejected before reaching the filter.
        let inj = json!({"$ne": null});
        assert!(sb.publish("alice@x", &inj).is_err());
        assert!(sb.share("alice@x", &inj, "mallory@x").is_err());
        assert!(sb.visible_to(None).unwrap().is_empty(), "nothing published");
        assert!(sb.visible_to(Some("mallory@x")).unwrap().is_empty());
    }

    #[test]
    fn publish_makes_public() {
        let db = Database::new();
        let sb = Sandbox::new(&db);
        let id = sb.upload("alice@x", json!({"d": 1})).unwrap();
        assert!(sb.publish("alice@x", &id).unwrap());
        assert_eq!(sb.visible_to(None).unwrap().len(), 1);
        assert_eq!(sb.visible_to(Some("anyone@x")).unwrap().len(), 1);
    }
}
