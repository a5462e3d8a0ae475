//! Shared harness utilities: system construction and parallel sweeps.

use cdd::{BlockStore, CddConfig, IoSystem};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::Engine;

/// The I/O architectures the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Centralized NFS server.
    Nfs,
    /// Distributed RAID under the CDD single I/O space.
    Raid(Arch),
}

impl SystemKind {
    /// The four measured architectures, in the paper's plotting order.
    pub const MEASURED: [SystemKind; 4] = [
        SystemKind::Nfs,
        SystemKind::Raid(Arch::Raid5),
        SystemKind::Raid(Arch::Raid10),
        SystemKind::Raid(Arch::RaidX),
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Nfs => "NFS",
            SystemKind::Raid(a) => a.name(),
        }
    }
}

/// Build the block store for `kind` on a cluster described by `cc`,
/// registering its resources in `engine`.
pub fn build_store(
    engine: &mut Engine,
    cc: ClusterConfig,
    kind: SystemKind,
) -> Box<dyn BlockStore> {
    match kind {
        SystemKind::Nfs => Box::new(NfsSystem::new(engine, cc, NfsConfig::default())),
        SystemKind::Raid(arch) => Box::new(IoSystem::new(engine, cc, arch, CddConfig::default())),
    }
}

/// Map `f` over `items` on a scoped worker pool (simulations are
/// independent and CPU-bound, so sweeps scale with cores). Result order
/// matches input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let n = items.len();
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(n.max(1));
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().expect("poisoned").take().expect("item claimed twice");
                let r = f(item);
                *slots[i].lock().expect("poisoned") = Some(r);
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("poisoned").expect("slot unfilled")).collect()
}

/// Write `results/{name}.csv` (the header line, then one line per row),
/// creating the directory if needed, and report the outcome on stderr.
pub fn write_csv(name: &str, header: &str, rows: impl Iterator<Item = String>) {
    let path = format!("results/{name}.csv");
    let body: String = rows.map(|row| row + "\n").collect();
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, format!("{header}\n{body}")));
    match written {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("{path}: write failed: {e}"),
    }
}

/// Render a markdown table: header row + alignment + data rows.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<i64>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
    }

    #[test]
    fn build_every_kind() {
        for kind in SystemKind::MEASURED {
            let mut e = Engine::new();
            let mut cc = ClusterConfig::shape(4, 1);
            cc.disk.capacity = 16 << 20;
            let mut s = build_store(&mut e, cc, kind);
            let bs = s.block_size() as usize;
            s.write(0, 0, &vec![1u8; bs]).unwrap();
            let (got, _) = s.read(1, 0, 1).unwrap();
            assert_eq!(got, vec![1u8; bs], "{}", kind.name());
        }
    }

    #[test]
    fn md_table_renders() {
        let t = md_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
