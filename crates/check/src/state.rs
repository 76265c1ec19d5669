//! Structural oracles over a quiesced ensemble's final state, and the
//! namespace snapshot used for WAL-replay equivalence.
//!
//! These checks run after `run_to_completion` has drained the event
//! queue — several of them (dirty attr-cache entries, open intents) are
//! only invariants *at quiescence*.

use slice_sim::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

use slice_core::actors::{DirActor, StorageActor};
use slice_core::ensemble::SliceEnsemble;
use slice_core::ClientActor;
use slice_dirsvc::{AttrCell, ChildRef, NameCell};
use slice_ec::{k_subsets, Codec, CodedLayout};
use slice_hashes::name_fingerprint;
use slice_nfsproto::{Fhandle, FileType};
use slice_storage::{ObjectStore, Placement};

use crate::Violation;

/// Runs every structural oracle: directory-service integrity, coordinator
/// block maps (site validity), attr-cache audit, and mirror convergence.
pub fn check_structural(ens: &SliceEnsemble) -> Vec<Violation> {
    structural(ens, false)
}

/// Like [`check_structural`] but additionally requires every block map to
/// be backed by storage objects. Only sound on crash-free runs: a crash
/// between map assignment and the first write legitimately leaves a map
/// without an object.
pub fn check_structural_strict(ens: &SliceEnsemble) -> Vec<Violation> {
    structural(ens, true)
}

fn structural(ens: &SliceEnsemble, strict: bool) -> Vec<Violation> {
    let mut v = check_dirsvc(ens);
    v.extend(check_block_maps(ens, strict));
    v.extend(check_attr_cache(ens));
    v.extend(check_mirror_convergence(ens));
    v.extend(check_coded_reconstruction(ens));
    v
}

/// Mirror-convergence oracle (slice-ha): at quiescence every mirrored
/// (file, chunk) must hold byte-identical data on all of its replica
/// sites, and the coordinator's dirty-region log must have drained.
/// Degraded writes are acceptable only while resynchronization is still
/// owed — never at a quiet fixpoint once every node has recovered.
pub fn check_mirror_convergence(ens: &SliceEnsemble) -> Vec<Violation> {
    let coord = ens.coord();
    let mut v: Vec<Violation> = coord
        .dirty_log_dump()
        .into_iter()
        .map(|(site, obj, offset, len)| {
            Violation::new(
                "mirror_dirty_log",
                format!(
                    "site {site} still owes resync of file {obj} [{offset}, +{len}) at quiescence"
                ),
            )
        })
        .collect();
    let Some(stripe_unit) = settled_stripe_unit(ens) else {
        return v;
    };
    let n = ens.storage.len() as u32;
    let start = if ens.sfs.is_empty() {
        0
    } else {
        slice_smallfile::SF_THRESHOLD
    };
    // Dynamic placements override the static striping function. Coded
    // files hold parity, not replicas — byte-compare does not apply to
    // them (the coded-reconstruction oracle covers them instead).
    let coded = matches!(coord.placement(), Placement::Coded { .. });
    let mut mapped: FxHashMap<(u64, u64), Vec<u32>> = FxHashMap::default();
    let mut coded_files: FxHashSet<u64> = FxHashSet::default();
    for (file, blocks) in coord.block_map_dump() {
        if coded {
            coded_files.insert(file);
            continue;
        }
        for (block, sites) in blocks {
            mapped.insert((file, block), sites);
        }
    }
    let (names, attrs) = dir_dumps(ens);
    let size_of = sizes(attrs);
    let mut mirrored: Vec<u64> = Vec::new();
    let mut seen = FxHashSet::default();
    for (_, _, cell) in &names {
        let fh = cell.child.fhandle();
        if fh.is_mirrored()
            && !fh.is_dir()
            && !fh.is_symlink()
            && !coded_files.contains(&cell.child.file)
            && seen.insert(cell.child.file)
        {
            mirrored.push(cell.child.file);
        }
    }
    mirrored.sort_unstable();
    for file in mirrored {
        let size = size_of.get(&file).copied().unwrap_or(0);
        let mut offset = start;
        while offset < size {
            let len = stripe_unit.min(size - offset) as usize;
            let block = offset / stripe_unit;
            let sites = mapped.get(&(file, block)).cloned().unwrap_or_else(|| {
                slice_hashes::stripe_slots(file, block, slice_core::MIRROR_COPIES, n).collect()
            });
            let reference = object_bytes(ens, sites[0], file, offset, len);
            for &s in &sites[1..] {
                let other = object_bytes(ens, s, file, offset, len);
                if other != reference {
                    let diverge = reference
                        .iter()
                        .zip(&other)
                        .position(|(a, b)| a != b)
                        .unwrap_or(reference.len().min(other.len()));
                    v.push(Violation::new(
                        "mirror_convergence",
                        format!(
                            "file {file} chunk [{offset}, +{len}): sites {} and {s} diverge at byte {}",
                            sites[0],
                            offset + diverge as u64
                        ),
                    ));
                    break; // one violation per chunk is plenty
                }
            }
            offset += len as u64;
        }
    }
    v
}

fn store(ens: &SliceEnsemble, site: u32) -> &ObjectStore {
    ens.engine
        .actor::<StorageActor>(ens.storage[site as usize])
        .node
        .store()
}

/// The bytes `[offset, offset + len)` of `file`'s object on storage site
/// `site`: a missing object, a hole and a metadata-only store read as
/// zeros.
fn object_bytes(ens: &SliceEnsemble, site: u32, file: u64, offset: u64, len: usize) -> Vec<u8> {
    match store(ens, site).get(file) {
        Some(obj) => obj.read(offset, len),
        None => vec![0u8; len],
    }
}

/// The stripe unit the µproxies route by, when byte-comparing stored
/// blocks is sound: no client op timed out (a timed-out write is left
/// partially applied, with no promise about either copy).
fn settled_stripe_unit(ens: &SliceEnsemble) -> Option<u64> {
    let timed_out = |&c| ens.engine.actor::<ClientActor>(c).stats().timeouts > 0;
    (!ens.clients.iter().any(timed_out)).then_some(slice_core::calib::STRIPE_UNIT)
}

/// `(site, key, cell)` rows collected from every directory server.
type SitedCells<C> = Vec<(usize, u64, C)>;

fn dir_dumps(ens: &SliceEnsemble) -> (SitedCells<NameCell>, SitedCells<AttrCell>) {
    let mut names = Vec::new();
    let mut attrs = Vec::new();
    for (i, &d) in ens.dirs.iter().enumerate() {
        let srv = &ens.engine.actor::<DirActor>(d).server;
        for (key, cell) in srv.dump_name_cells() {
            names.push((i, key, cell));
        }
        for (file, cell) in srv.dump_attr_cells() {
            attrs.push((i, file, cell));
        }
    }
    (names, attrs)
}

/// Each file's size per its attribute cell (the last site's, should two
/// hold one: [`check_dirsvc`] reports that).
fn sizes(attrs: SitedCells<AttrCell>) -> FxHashMap<u64, u64> {
    attrs
        .into_iter()
        .map(|(_, file, cell)| (file, cell.attr.size))
        .collect()
}

/// Directory-service invariants: unique attribute cells, hash-chain
/// integrity of name-cell keys, no orphans, link counts, and per-directory
/// entry counts (paper §4.3: sites cooperate "to update link counts ...
/// and to follow cross-site links").
pub fn check_dirsvc(ens: &SliceEnsemble) -> Vec<Violation> {
    let mut v = Vec::new();
    let (names, attrs) = dir_dumps(ens);
    let root_file = Fhandle::root().file_id();

    // One authoritative attribute cell per file, across all sites.
    let mut attr_map: FxHashMap<u64, (usize, AttrCell)> = FxHashMap::default();
    for (site, file, cell) in &attrs {
        if let Some((other, _)) = attr_map.get(file) {
            v.push(Violation::new(
                "dirsvc_attr_unique",
                format!("file {file} has attribute cells at sites {other} and {site}"),
            ));
        } else {
            attr_map.insert(*file, (*site, cell.clone()));
        }
    }

    // ChildRefs referencing the same file must agree on home and key
    // (they mint the same handle bytes modulo flags/generation).
    let mut child_of: FxHashMap<u64, ChildRef> = FxHashMap::default();
    for (_, _, cell) in &names {
        let c = cell.child;
        match child_of.get(&c.file) {
            Some(prev) if (prev.home, prev.key) != (c.home, c.key) => {
                v.push(Violation::new(
                    "dirsvc_childref",
                    format!(
                        "file {} referenced with (home {}, key {:#x}) and (home {}, key {:#x})",
                        c.file, prev.home, prev.key, c.home, c.key
                    ),
                ));
            }
            Some(_) => {}
            None => {
                child_of.insert(c.file, c);
            }
        }
    }

    // Hash chain: every name cell's map key must equal the fingerprint of
    // (parent handle bytes, name) — the same computation the µproxy's
    // request router performs, so a broken chain means unroutable names.
    for (site, key, cell) in &names {
        let parent_fh = if cell.parent == root_file {
            Fhandle::root()
        } else if let Some(cr) = child_of.get(&cell.parent) {
            cr.fhandle()
        } else {
            v.push(Violation::new(
                "dirsvc_orphan",
                format!(
                    "site {site}: entry '{}' has parent {} with no name cell anywhere",
                    cell.name, cell.parent
                ),
            ));
            continue;
        };
        let want = name_fingerprint(&parent_fh.0, cell.name.as_bytes());
        if want != *key {
            v.push(Violation::new(
                "dirsvc_hash_chain",
                format!(
                    "site {site}: entry '{}' under {} stored at key {key:#x}, fingerprint {want:#x}",
                    cell.name, cell.parent
                ),
            ));
        }
        if let Some((_, pa)) = attr_map.get(&cell.parent) {
            if pa.attr.ftype != FileType::Directory {
                v.push(Violation::new(
                    "dirsvc_parent_type",
                    format!(
                        "entry '{}' has non-directory parent {}",
                        cell.name, cell.parent
                    ),
                ));
            }
        }
        if !attr_map.contains_key(&cell.child.file) {
            v.push(Violation::new(
                "dirsvc_missing_attr",
                format!(
                    "entry '{}' references file {} with no attribute cell anywhere",
                    cell.name, cell.child.file
                ),
            ));
        }
    }

    // Link counts and entry counts against the actual name cells.
    let mut refcount: FxHashMap<u64, u32> = FxHashMap::default();
    let mut entries: FxHashMap<u64, u32> = FxHashMap::default();
    for (_, _, cell) in &names {
        *refcount.entry(cell.child.file).or_insert(0) += 1;
        *entries.entry(cell.parent).or_insert(0) += 1;
    }
    for (file, (site, cell)) in &attr_map {
        match cell.attr.ftype {
            FileType::Directory => {
                let have = entries.get(file).copied().unwrap_or(0);
                if cell.entry_count != have {
                    v.push(Violation::new(
                        "dirsvc_entry_count",
                        format!(
                            "directory {file} (site {site}) records {} entries, {} name cells exist",
                            cell.entry_count, have
                        ),
                    ));
                }
            }
            FileType::Regular | FileType::Symlink => {
                let have = refcount.get(file).copied().unwrap_or(0);
                if cell.attr.nlink != have {
                    v.push(Violation::new(
                        "dirsvc_nlink",
                        format!(
                            "file {file} (site {site}) has nlink {}, {} referencing name cells",
                            cell.attr.nlink, have
                        ),
                    ));
                }
            }
        }
    }

    v
}

/// Coordinator block maps: replica site lists must be valid (in range,
/// non-empty, distinct). With `strict`, every map for a file whose
/// authoritative size reaches into the striped region must be backed by a
/// storage object, and every block of a mirrored placement must hold
/// byte-identical data on every listed site — compared block by block,
/// because `MapGet` assigns whole 16-block fragments eagerly, so a
/// sparsely written file legitimately maps never-written blocks (which
/// read as zeros everywhere). Files at or below the small-file threshold
/// live entirely on the small-file servers, so a map assigned for them
/// (e.g. by a truncate routed through the bulk path) legitimately has no
/// object.
pub fn check_block_maps(ens: &SliceEnsemble, strict: bool) -> Vec<Violation> {
    let mut v = Vec::new();
    let sites = ens.storage.len() as u32;
    let size_of = sizes(dir_dumps(ens).1);
    let coord = ens.coord();
    let unit = coord.stripe_unit();
    let placement = coord.placement();
    for (file, blocks) in coord.block_map_dump() {
        let expect_backing = size_of
            .get(&file)
            .is_some_and(|&sz| sz > slice_smallfile::SF_THRESHOLD);
        let mut any_backed = false;
        for (block, replica_sites) in &blocks {
            if replica_sites.is_empty() {
                v.push(Violation::new(
                    "block_map_sites",
                    format!("file {file} block {block} has no replica sites"),
                ));
                continue;
            }
            if let Placement::Coded { n, .. } = placement {
                if replica_sites.len() != n as usize {
                    v.push(Violation::new(
                        "block_map_sites",
                        format!(
                            "file {file} block {block} coded n={n} but lists {} sites",
                            replica_sites.len()
                        ),
                    ));
                }
            }
            let mut seen = FxHashSet::default();
            for &s in replica_sites {
                if s >= sites {
                    v.push(Violation::new(
                        "block_map_sites",
                        format!("file {file} block {block} lists site {s} of {sites}"),
                    ));
                } else if !seen.insert(s) {
                    v.push(Violation::new(
                        "block_map_sites",
                        format!("file {file} block {block} lists site {s} twice"),
                    ));
                } else if store(ens, s).get(file).is_some() {
                    any_backed = true;
                }
            }
            // Mirror byte-compare: at quiescence every listed replica of
            // this block must read back identically (a missing object or
            // a hole reads as zeros, so eagerly assigned never-written
            // blocks pass trivially).
            if strict && expect_backing && matches!(placement, Placement::Mirrored { .. }) {
                let mut replicas = replica_sites.iter().filter(|&&s| s < sites);
                if let Some(&first) = replicas.next() {
                    let want = object_bytes(ens, first, file, block * unit, unit as usize);
                    for &s in replicas {
                        if object_bytes(ens, s, file, block * unit, unit as usize) != want {
                            v.push(Violation::new(
                                "block_map_object",
                                format!(
                                    "file {file} block {block} mirrored on sites {first} and \
                                     {s}, but the copies diverge"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        if strict && expect_backing && !blocks.is_empty() && !any_backed {
            v.push(Violation::new(
                "block_map_object",
                format!(
                    "file {file} has a {}-block map but no storage object on any listed site",
                    blocks.len()
                ),
            ));
        }
    }
    v
}

/// Coded-reconstruction oracle (slice-ec): at quiescence every stripe of
/// every erasure-coded file must satisfy the code — each parity shard
/// equals the Cauchy combination of the k data shards, and every k-subset
/// of the n shards decodes back to the same data — unless the stripe is
/// still covered by an open dirty-region entry (resync owed; the dirty-log
/// oracle reports that separately). Holes read as zeros, which the linear
/// code encodes to zero parity, so sparse stripes need no special-casing.
/// Like the mirror byte-compare, this is only sound on runs where every
/// client op eventually completed.
pub fn check_coded_reconstruction(ens: &SliceEnsemble) -> Vec<Violation> {
    let mut v = Vec::new();
    let coord = ens.coord();
    let (Some(stripe_unit), Placement::Coded { n, k }) =
        (settled_stripe_unit(ens), coord.placement())
    else {
        return v;
    };
    // Open dirty ranges excuse a stripe: a leg parked there has not been
    // resynced yet, so its shards are legitimately stale.
    let mut dirty: FxHashMap<u64, Vec<(u64, u64)>> = FxHashMap::default();
    for (_site, obj, offset, len) in coord.dirty_log_dump() {
        dirty.entry(obj).or_default().push((offset, len));
    }
    let layout = CodedLayout::new(n, k, stripe_unit);
    let codec = Codec::new(n as usize, k as usize);
    let ssize = layout.shard_size() as usize;
    for (file, blocks) in coord.block_map_dump() {
        for (s, sites) in blocks {
            if sites.len() != n as usize {
                continue; // reported by check_block_maps
            }
            let excused = dirty.get(&file).is_some_and(|ranges| {
                ranges
                    .iter()
                    .any(|&(o, l)| o < (s + 1) * stripe_unit && o + l > s * stripe_unit)
            });
            if excused {
                continue;
            }
            let shards: Vec<Vec<u8>> = (0..n)
                .map(|idx| {
                    let offset = layout.shard_obj_offset(s, idx, 0);
                    object_bytes(ens, sites[idx as usize], file, offset, ssize)
                })
                .collect();
            let data: Vec<&[u8]> = shards[..k as usize].iter().map(Vec::as_slice).collect();
            let mut stripe_ok = true;
            for p in 0..(n - k) as usize {
                if codec.parity_row(p, &data) != shards[k as usize + p] {
                    v.push(Violation::new(
                        "coded_parity",
                        format!(
                            "file {file} stripe {s}: parity shard {p} on site {} inconsistent with data",
                            sites[k as usize + p]
                        ),
                    ));
                    stripe_ok = false;
                }
            }
            if !stripe_ok {
                continue; // k-subset decodes would all re-report the same corruption
            }
            for subset in k_subsets(n as usize, k as usize) {
                let mut present: Vec<Option<&[u8]>> = vec![None; n as usize];
                for &i in &subset {
                    present[i] = Some(&shards[i]);
                }
                let decoded = codec.decode(&present);
                if decoded.as_deref() != Some(&shards[..k as usize]) {
                    v.push(Violation::new(
                        "coded_decode",
                        format!(
                            "file {file} stripe {s}: k-subset {subset:?} fails to reconstruct the data shards"
                        ),
                    ));
                    break; // one violation per stripe is plenty
                }
            }
        }
    }
    v
}

/// Drain oracle (online reconfiguration): after a planned removal, the
/// drained sites must be fully evacuated — no chunk stranded, no map
/// entry orphaned. Concretely, for every site in `sites`:
/// the coordinator reports it retired; no block-map entry or durable
/// pin references it; its storage node holds no object that any block
/// map still names (bytes were migrated, then removed); the
/// coordinator's dirty-region/migration soft state for it has been
/// purged; and no µproxy still suspects it (retirement purges the
/// suspicion table, closing the O(ever-seen) soft-state leak).
pub fn check_drained(ens: &SliceEnsemble, sites: &[usize]) -> Vec<Violation> {
    let mut v = Vec::new();
    let coord = ens.coord();
    let map = coord.block_map_dump();
    // Which objects does the coordinator still map (to any site)?
    let mapped_objs: FxHashSet<u64> = map.iter().map(|&(file, _)| file).collect();
    for &site in sites {
        let s32 = site as u32;
        if !coord.is_retired(s32) {
            v.push(Violation::new(
                "drain_incomplete",
                format!("site {site} not retired at quiescence"),
            ));
        }
        for (file, blocks) in &map {
            for (block, replica_sites) in blocks {
                if replica_sites.contains(&s32) {
                    v.push(Violation::new(
                        "drain_orphan_map",
                        format!("file {file} block {block} still maps retired site {site}"),
                    ));
                }
            }
        }
        for (file, block, pinned) in coord.pinned_entries_dump() {
            if pinned.contains(&s32) {
                v.push(Violation::new(
                    "drain_orphan_pin",
                    format!("file {file} block {block} pin still names retired site {site}"),
                ));
            }
        }
        for (d_site, obj, offset, len) in coord.dirty_log_dump() {
            if d_site == s32 {
                v.push(Violation::new(
                    "drain_soft_state",
                    format!(
                        "dirty-region entry for retired site {site} \
                         (file {obj} [{offset}, +{len})) survived the purge"
                    ),
                ));
            }
        }
        for obj in store(ens, s32).ids() {
            if mapped_objs.contains(&obj) {
                v.push(Violation::new(
                    "drain_stranded_chunk",
                    format!("retired site {site} still holds mapped object {obj}"),
                ));
            }
        }
        for (i, &c) in ens.clients.iter().enumerate() {
            let Some(proxy) = ens.engine.actor::<ClientActor>(c).proxy() else {
                continue;
            };
            if proxy.suspected_sites().contains(&s32) {
                v.push(Violation::new(
                    "drain_soft_state",
                    format!("client {i}: µproxy still suspects retired site {site}"),
                ));
            }
            if !proxy.retired_sites().contains(&s32) {
                v.push(Violation::new(
                    "drain_incomplete",
                    format!("client {i}: µproxy never learned site {site} retired"),
                ));
            }
        }
    }
    v
}

/// Attr-cache audit: at quiescence no cached attribute may still be dirty
/// (every write-back must have been pushed and acknowledged), and — for
/// single-client runs, where no other writer can legitimately outdate the
/// cache — clean cached sizes must be subsumed by the directory service's
/// authoritative attributes.
pub fn check_attr_cache(ens: &SliceEnsemble) -> Vec<Violation> {
    let mut v = Vec::new();
    let server_size = sizes(dir_dumps(ens).1);
    let single_client = ens.clients.len() == 1;
    for (i, &c) in ens.clients.iter().enumerate() {
        let client = ens.engine.actor::<ClientActor>(c);
        let Some(proxy) = client.proxy() else {
            continue;
        };
        for (file, dirty, size) in proxy.audit_attr_cache() {
            if dirty {
                v.push(Violation::new(
                    "attr_cache_dirty",
                    format!("client {i}: file {file} still dirty at quiescence"),
                ));
            } else if single_client {
                if let Some(&srv) = server_size.get(&file) {
                    if srv < size {
                        v.push(Violation::new(
                            "attr_cache_subsumed",
                            format!(
                                "client {i}: file {file} cached size {size}, server holds {srv}"
                            ),
                        ));
                    }
                }
            }
        }
    }
    v
}

/// One namespace entry in a [`VolumeSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEntry {
    /// `"file"`, `"dir"`, or `"symlink"`.
    pub kind: &'static str,
    /// Size in bytes per the authoritative attribute cell.
    pub size: u64,
    /// Link count per the authoritative attribute cell.
    pub nlink: u32,
}

/// A path-keyed snapshot of the whole distributed namespace, assembled by
/// walking name cells from the root across every directory site. Two runs
/// that performed the same client-visible operations must produce equal
/// snapshots — the WAL-replay equivalence oracle compares a post-crash
/// recovered run against a crash-free reference run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VolumeSnapshot {
    /// Entries by absolute path.
    pub entries: BTreeMap<String, SnapEntry>,
}

/// Builds the namespace snapshot of a quiesced ensemble.
pub fn snapshot(ens: &SliceEnsemble) -> VolumeSnapshot {
    let (names, attrs) = dir_dumps(ens);
    let mut attr_map: FxHashMap<u64, AttrCell> = FxHashMap::default();
    for (_, file, cell) in attrs {
        attr_map.entry(file).or_insert(cell);
    }
    let mut children: FxHashMap<u64, Vec<(String, ChildRef)>> = FxHashMap::default();
    for (_, _, cell) in names {
        children
            .entry(cell.parent)
            .or_default()
            .push((cell.name, cell.child));
    }

    let mut snap = VolumeSnapshot::default();
    let root = Fhandle::root().file_id();
    let mut queue: Vec<(u64, String)> = vec![(root, String::new())];
    let mut visited = FxHashSet::default();
    while let Some((dir, prefix)) = queue.pop() {
        if !visited.insert(dir) {
            continue; // corrupt cycle: the dirsvc oracles will report it
        }
        let Some(kids) = children.get(&dir) else {
            continue;
        };
        for (name, child) in kids {
            let path = format!("{prefix}/{name}");
            let (kind, size, nlink) = match attr_map.get(&child.file) {
                Some(cell) => (
                    match cell.attr.ftype {
                        FileType::Directory => "dir",
                        FileType::Regular => "file",
                        FileType::Symlink => "symlink",
                    },
                    cell.attr.size,
                    cell.attr.nlink,
                ),
                None => ("file", 0, 0),
            };
            if kind == "dir" {
                queue.push((child.file, path.clone()));
            }
            snap.entries.insert(path, SnapEntry { kind, size, nlink });
        }
    }
    snap
}

/// Describes every difference between two snapshots (empty = equivalent).
pub fn snapshot_diff(a: &VolumeSnapshot, b: &VolumeSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    for (path, ea) in &a.entries {
        match b.entries.get(path) {
            None => out.push(format!("{path}: present in A only ({ea:?})")),
            Some(eb) if ea != eb => out.push(format!("{path}: {ea:?} vs {eb:?}")),
            Some(_) => {}
        }
    }
    for (path, eb) in &b.entries {
        if !a.entries.contains_key(path) {
            out.push(format!("{path}: present in B only ({eb:?})"));
        }
    }
    out
}
