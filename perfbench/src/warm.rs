//! The warm workload's cache: filled once per run, untimed, in a child
//! process, and checked afterwards for silent rebuilds.

use crate::pipeline::run_once;
use crate::workload::Inputs;
use std::path::Path;
use std::time::SystemTime;

/// Size and modification time of every file in the cache dir, sorted by
/// name. A rebuild rewrites the blobs (tmp + rename), which changes the
/// modification time even when the bytes come out equal.
pub type BlobStamps = Vec<(String, u64, SystemTime)>;

pub fn blob_stamps(dir: &Path) -> Result<BlobStamps, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = BlobStamps::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        let mtime = meta
            .modified()
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        out.push((
            entry.file_name().to_string_lossy().into_owned(),
            meta.len(),
            mtime,
        ));
    }
    out.sort();
    Ok(out)
}

/// Builds the cache cold from an empty dir and plans on it; returns the
/// cold plan digest.
pub fn fill_cold(inputs: &Inputs) -> Result<u64, String> {
    let dir = inputs
        .cache_dir
        .as_deref()
        .ok_or("workload has no cache dir")?;
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let (it, _, _) = run_once(inputs);
    let blobs = blob_stamps(dir)?;
    if blobs.len() != 2 {
        return Err(format!(
            "cache fill left {} files in {}, expected a store and a neighbor blob",
            blobs.len(),
            dir.display()
        ));
    }
    Ok(it.digest)
}
