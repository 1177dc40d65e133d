//! Checking a served report against its independent reference.
//!
//! Only cache- and order-independent fields are compared: the exponent,
//! the entropy values, the widths, `acyclic` and the witness verdict.
//! `micros`, `cache_stats`, `solver_stats` and the witness's own
//! `measured`/`rmax` values are never compared with a fixed value: an LP
//! with several optimal colorings may answer a cache hit with a
//! different (equally tight) witness database than a cold solve.

use crate::workload::{Expect, Request};
use cq_engine::Json;

/// Checks one `analyze` response line: envelope, then report.
pub fn check_response(line: &str, id: usize, req: &Request) -> Result<(), String> {
    let resp = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("not ok: {line}"));
    }
    if resp.get("id").and_then(Json::as_usize) != Some(id) {
        return Err(format!("id {id} not echoed"));
    }
    let report = resp.get("report").ok_or("no report")?;
    check_report(report, req)
}

/// Checks one report object (as served, or as rendered in-process).
pub fn check_report(report: &Json, req: &Request) -> Result<(), String> {
    let field = |path: &[&str]| -> Option<&Json> {
        path.iter().try_fold(report, |value, key| value.get(key))
    };
    let want = |path: &[&str], expected: Json| -> Result<(), String> {
        match field(path) {
            Some(actual) if *actual == expected => Ok(()),
            actual => Err(format!(
                "{}: {} is {}, expected {}",
                req.name,
                path.join("."),
                actual.map_or("missing".to_owned(), Json::render),
                expected.render()
            )),
        }
    };
    want(&["name"], Json::str(&req.name))?;
    match &req.expect {
        Expect::Exact {
            exponent,
            treewidth,
            hypertree,
            acyclic,
        } => {
            want(&["size_bound", "exponent"], Json::str(rational(*exponent)))?;
            want(&["widths", "treewidth"], Json::int(*treewidth))?;
            want(&["widths", "hypertree_width"], Json::int(*hypertree))?;
            want(&["acyclic"], Json::Bool(*acyclic))?;
            if let Some(m) = req.witness {
                want(&["witness", "m"], Json::int(m))?;
                want(&["witness", "holds"], Json::Bool(true))?;
                check_tight_witness(report, *exponent).map_err(|e| format!("{}: {e}", req.name))?;
            }
        }
        Expect::Entropy {
            color,
            bound,
            treewidth,
            hypertree,
            acyclic,
        } => {
            want(&["simple_fds"], Json::Bool(false))?;
            want(&["size_bound"], Json::Null)?;
            want(&["entropy", "color_number"], Json::str(color.to_string()))?;
            want(
                &["entropy", "exponent"],
                Json::opt(*bound, |b| Json::str(b.to_string())),
            )?;
            want(&["widths", "treewidth"], Json::int(*treewidth))?;
            want(&["widths", "hypertree_width"], Json::int(*hypertree))?;
            want(&["acyclic"], Json::Bool(*acyclic))?;
        }
        Expect::Cover(query) => {
            let (value, _weights) = cq_core::fractional_edge_cover_head(query);
            want(&["size_bound", "exponent"], Json::str(value.to_string()))?;
        }
    }
    Ok(())
}

fn rational((p, q): (u64, u64)) -> String {
    if q == 1 {
        p.to_string()
    } else {
        format!("{p}/{q}")
    }
}

/// Prop 4.5 databases are tight on self-join-free queries:
/// `measured^q == rmax^p` exactly for the exponent `p/q`. This holds for
/// every optimal coloring, so it is independent of which one the cache
/// returned.
fn check_tight_witness(report: &Json, (p, q): (u64, u64)) -> Result<(), String> {
    let witness = report.get("witness").ok_or("no witness")?;
    let get = |key: &str| -> Result<u128, String> {
        witness
            .get(key)
            .and_then(Json::as_usize)
            .map(|v| v as u128)
            .ok_or(format!("witness.{key} missing"))
    };
    let (measured, rmax) = (get("measured")?, get("rmax")?);
    let pow = |base: u128, exp: u64| -> Result<u128, String> {
        u32::try_from(exp)
            .ok()
            .and_then(|e| base.checked_pow(e))
            .ok_or(format!("witness power {base}^{exp} overflows"))
    };
    if pow(measured, q)? == pow(rmax, p)? {
        Ok(())
    } else {
        Err(format!(
            "witness not tight: measured {measured}, rmax {rmax}, exponent {p}/{q}"
        ))
    }
}
