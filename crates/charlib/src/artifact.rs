//! The on-disk artifact: canonical, versioned JSON keyed by a content
//! hash of cell kind + device parameters + measurement protocol +
//! grid.
//!
//! The writer is canonical (fixed member order, shortest round-trip
//! float formatting, `null` for non-finite entries), so
//! save → load → save is byte-identical. The loader recomputes the
//! content hash from the *requested* cell/protocol and the grid found
//! in the file; a mismatch means the artifact was built for a
//! different cell, sizing, protocol or format and is reported as
//! [`CharLibError::Stale`] instead of being served.

use vls_cells::ShifterKind;
use vls_core::{CharacterizeOptions, PROTOCOL_REVISION};

use crate::grid::GridSpec;
use crate::json::{self, Json};
use crate::{CharLib, CharLibError, Tables};

/// The artifact schema version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a over `bytes` — stable, dependency-free, and entirely
/// sufficient for change *detection* (this is a freshness key, not a
/// security boundary).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content hash an artifact for (`kind`, `base`, `grid`) must
/// carry. Covers the schema version, the cell kind *including every
/// device parameter* (via its exhaustive `Debug` rendering), the
/// protocol constants that shape the measured numbers, the protocol's
/// code revision ([`vls_core::PROTOCOL_REVISION`]), and the exact grid
/// coordinates — change any of them and the hash moves, forcing a
/// rebuild.
pub fn content_hash(kind: &ShifterKind, base: &CharacterizeOptions, grid: &GridSpec) -> u64 {
    hash_at_revision(kind, base, grid, PROTOCOL_REVISION)
}

/// The content hash protocol revision `revision` gave (`kind`, `base`,
/// `grid`).
fn hash_at_revision(
    kind: &ShifterKind,
    base: &CharacterizeOptions,
    grid: &GridSpec,
    revision: u32,
) -> u64 {
    let keyed = format!(
        "{};protocol_revision={revision}",
        descriptor(kind, base, grid)
    );
    fnv1a64(keyed.as_bytes())
}

/// Everything [`content_hash`] covers but the protocol revision; its
/// hash alone was the content hash before the revision existed.
fn descriptor(kind: &ShifterKind, base: &CharacterizeOptions, grid: &GridSpec) -> String {
    let sim = &base.sim;
    format!(
        "charlib-v{FORMAT_VERSION};cell={kind:?};protocol=(power_window={:?},level_tolerance={:?},\
         reltol={:?},vabstol={:?},iabstol={:?},lte_tol={:?});grid=(slew={:?},load={:?},vddi={:?},\
         vddo={:?},temp={:?},trust_margin={:?})",
        base.power_window,
        base.level_tolerance,
        sim.reltol,
        sim.vabstol,
        sim.iabstol,
        sim.lte_tol,
        grid.slew,
        grid.load,
        grid.vddi,
        grid.vddo,
        grid.temp,
        grid.trust_margin,
    )
}

fn write_axis(out: &mut String, name: &str, axis: &[f64]) {
    out.push_str("    \"");
    out.push_str(name);
    out.push_str("\": [");
    for (i, &v) in axis.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_f64(out, v);
    }
    out.push(']');
}

fn write_table(out: &mut String, name: &str, values: &[f64]) {
    out.push_str("    \"");
    out.push_str(name);
    out.push_str("\": [");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_f64(out, v);
    }
    out.push(']');
}

impl CharLib {
    /// Renders the canonical artifact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {FORMAT_VERSION},\n"));
        out.push_str("  \"cell\": ");
        json::write_str(&mut out, self.kind().label());
        out.push_str(",\n");
        out.push_str(&format!(
            "  \"content_hash\": \"{:#018x}\",\n",
            self.content_hash()
        ));
        out.push_str("  \"grid\": {\n");
        out.push_str("    \"trust_margin\": ");
        json::write_f64(&mut out, self.grid().trust_margin);
        out.push_str(",\n");
        let grid = self.grid();
        for (name, axis) in [
            ("slew", &grid.slew),
            ("load", &grid.load),
            ("vddi", &grid.vddi),
            ("vddo", &grid.vddo),
            ("temp", &grid.temp),
        ] {
            write_axis(&mut out, name, axis);
            out.push_str(if name == "temp" { "\n" } else { ",\n" });
        }
        out.push_str("  },\n");
        out.push_str("  \"tables\": {\n");
        let t = &self.tables;
        for (name, values) in [
            ("delay_rise", &t.delay_rise),
            ("delay_fall", &t.delay_fall),
            ("power_rise", &t.power_rise),
            ("power_fall", &t.power_fall),
            ("leakage_high", &t.leakage_high),
            ("leakage_low", &t.leakage_low),
        ] {
            write_table(&mut out, name, values);
            out.push_str(",\n");
        }
        out.push_str("    \"functional\": [");
        for (i, &f) in t.functional.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(if f { "true" } else { "false" });
        }
        out.push_str("]\n  }\n}\n");
        out
    }

    /// Parses and verifies an artifact for (`kind`, `base`).
    ///
    /// # Errors
    ///
    /// [`CharLibError::Parse`] for malformed JSON or schema
    /// violations, [`CharLibError::Format`] for an unsupported format
    /// version, [`CharLibError::BadGrid`] for an invalid stored grid,
    /// and [`CharLibError::Stale`] when the stored content hash does
    /// not match the requested cell + protocol + stored grid.
    pub fn load_json(
        text: &str,
        kind: &ShifterKind,
        base: &CharacterizeOptions,
    ) -> Result<Self, CharLibError> {
        let doc = json::parse(text).map_err(CharLibError::Parse)?;
        let format = require_num(&doc, "format")?;
        if format.fract() != 0.0 || format < 0.0 {
            return Err(CharLibError::Parse(format!("bad format version {format}")));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let format = format as u32;
        if format != FORMAT_VERSION {
            return Err(CharLibError::Format { found: format });
        }
        let stored_hash = parse_hash(
            doc.get("content_hash")
                .and_then(Json::as_str)
                .ok_or_else(|| CharLibError::Parse("missing content_hash".into()))?,
        )?;

        let grid_doc = doc
            .get("grid")
            .ok_or_else(|| CharLibError::Parse("missing grid".into()))?;
        let trust_margin = require_num(grid_doc, "trust_margin")?;
        let grid = GridSpec::new(
            require_axis(grid_doc, "slew")?,
            require_axis(grid_doc, "load")?,
            require_axis(grid_doc, "vddi")?,
            require_axis(grid_doc, "vddo")?,
            require_axis(grid_doc, "temp")?,
            trust_margin,
        )?;

        let expected = content_hash(kind, base, &grid);
        if expected != stored_hash {
            return Err(CharLibError::Stale {
                expected,
                found: stored_hash,
            });
        }

        let tables_doc = doc
            .get("tables")
            .ok_or_else(|| CharLibError::Parse("missing tables".into()))?;
        let n = grid.n_points();
        let tables = Tables {
            delay_rise: require_table(tables_doc, "delay_rise", n)?,
            delay_fall: require_table(tables_doc, "delay_fall", n)?,
            power_rise: require_table(tables_doc, "power_rise", n)?,
            power_fall: require_table(tables_doc, "power_fall", n)?,
            leakage_high: require_table(tables_doc, "leakage_high", n)?,
            leakage_low: require_table(tables_doc, "leakage_low", n)?,
            functional: require_bools(tables_doc, "functional", n)?,
        };
        Ok(CharLib::from_parts(
            kind.clone(),
            base.clone(),
            grid,
            stored_hash,
            tables,
        ))
    }
}

fn parse_hash(text: &str) -> Result<u64, CharLibError> {
    let digits = text
        .strip_prefix("0x")
        .ok_or_else(|| CharLibError::Parse(format!("content_hash '{text}' is not 0x-prefixed")))?;
    u64::from_str_radix(digits, 16).map_err(|_| {
        CharLibError::Parse(format!("content_hash '{text}' is not a 64-bit hex value"))
    })
}

fn require_num(doc: &Json, key: &str) -> Result<f64, CharLibError> {
    doc.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| CharLibError::Parse(format!("missing number '{key}'")))
}

fn require_axis(doc: &Json, key: &str) -> Result<Vec<f64>, CharLibError> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CharLibError::Parse(format!("missing axis '{key}'")))?;
    items
        .iter()
        .map(|v| {
            v.as_num()
                .ok_or_else(|| CharLibError::Parse(format!("axis '{key}' has a non-number entry")))
        })
        .collect()
}

fn require_table(doc: &Json, key: &str, n: usize) -> Result<Vec<f64>, CharLibError> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CharLibError::Parse(format!("missing table '{key}'")))?;
    if items.len() != n {
        return Err(CharLibError::Parse(format!(
            "table '{key}' has {} entries, grid has {n} points",
            items.len()
        )));
    }
    items
        .iter()
        .map(|v| match v {
            Json::Num(x) => Ok(*x),
            Json::Null => Ok(f64::NAN),
            _ => Err(CharLibError::Parse(format!(
                "table '{key}' has a non-number entry"
            ))),
        })
        .collect()
}

fn require_bools(doc: &Json, key: &str, n: usize) -> Result<Vec<bool>, CharLibError> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CharLibError::Parse(format!("missing table '{key}'")))?;
    if items.len() != n {
        return Err(CharLibError::Parse(format!(
            "table '{key}' has {} entries, grid has {n} points",
            items.len()
        )));
    }
    items
        .iter()
        .map(|v| match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(CharLibError::Parse(format!(
                "table '{key}' has a non-boolean entry"
            ))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_moves_with_every_input() {
        let base = CharacterizeOptions::default();
        let grid = GridSpec::smoke();
        let h = content_hash(&ShifterKind::sstvs(), &base, &grid);
        // Different cell.
        assert_ne!(h, content_hash(&ShifterKind::combined(), &base, &grid));
        // Different protocol constant.
        let mut widened = base.clone();
        widened.power_window = 4e-9;
        assert_ne!(h, content_hash(&ShifterKind::sstvs(), &widened, &grid));
        // Different grid.
        let mut shifted = grid.clone();
        shifted.vddi = vec![0.8, 1.3];
        assert_ne!(h, content_hash(&ShifterKind::sstvs(), &base, &shifted));
        // Different sizing of the same cell.
        let mut sizes = vls_cells::SstvsSizes::paper();
        sizes.w_m1 *= 2.0;
        assert_ne!(
            h,
            content_hash(
                &ShifterKind::Sstvs(vls_cells::Sstvs::with_sizes(sizes)),
                &base,
                &grid
            ),
            "device parameters must key the hash"
        );
        // Stable for identical inputs.
        assert_eq!(h, content_hash(&ShifterKind::sstvs(), &base, &grid));
    }

    #[test]
    fn a_library_hashed_before_the_protocol_revision_loads_as_stale() {
        // A library built by an earlier protocol carries the hash of the
        // same (kind, options, grid) without the revision, or with an
        // earlier one.
        let kind = ShifterKind::sstvs();
        let base = CharacterizeOptions::default();
        let grid = GridSpec::smoke();
        let tables = Tables {
            delay_rise: vec![1e-10; 4],
            delay_fall: vec![1e-10; 4],
            power_rise: vec![1e-6; 4],
            power_fall: vec![1e-6; 4],
            leakage_high: vec![1e-9; 4],
            leakage_low: vec![1e-9; 4],
            functional: vec![true; 4],
        };
        let unrevised = fnv1a64(descriptor(&kind, &base, &grid).as_bytes());
        let revision_2 = hash_at_revision(&kind, &base, &grid, 2);
        let revision_3 = hash_at_revision(&kind, &base, &grid, 3);
        let revision_4 = hash_at_revision(&kind, &base, &grid, 4);
        let current = content_hash(&kind, &base, &grid);
        let artifact = |hash| {
            CharLib::from_parts(
                kind.clone(),
                base.clone(),
                grid.clone(),
                hash,
                tables.clone(),
            )
            .to_json()
        };
        for old in [unrevised, revision_2, revision_3, revision_4] {
            assert_ne!(old, current);
            let err = CharLib::load_json(&artifact(old), &kind, &base).unwrap_err();
            assert!(
                matches!(err, CharLibError::Stale { expected, found } if expected == current && found == old),
                "expected a stale report, got {err}"
            );
        }
        assert!(CharLib::load_json(&artifact(current), &kind, &base).is_ok());
    }

    #[test]
    fn hash_field_parses_back() {
        assert_eq!(parse_hash("0x00000000000000ff").unwrap(), 255);
        assert!(parse_hash("ff").is_err());
        assert!(parse_hash("0xzz").is_err());
    }
}
