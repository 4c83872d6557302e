//! mdtest-style workload generation (paper §V: "directory structure with a
//! fan-out factor of 10 and directory depth of 5").
//!
//! Each client process owns a private subtree (mdtest's unique-directory
//! mode) and runs the six measured phases in order: directory
//! create/stat/removal and file create/stat/removal. Within a process,
//! directories form a `z`-ary heap-shaped tree (directory *j*'s parent is
//! directory *(j-1)/z*), which yields depth ⌈log_z n⌉ — fan-out 10, depth 5
//! at the paper's scales. Files are spread across the directories
//! round-robin, so "as the number of processes increases, the number of
//! files per directory also increases accordingly".

/// One mdtest phase. Order matches mdtest's run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `mkdir` every tree directory.
    DirCreate,
    /// `stat` every directory.
    DirStat,
    /// `rmdir` every directory (children first).
    DirRemove,
    /// `creat` every file.
    FileCreate,
    /// `stat` every file.
    FileStat,
    /// `unlink` every file.
    FileRemove,
}

impl Phase {
    /// All six phases. Directory removal runs last so the file phases can
    /// use the directory tree (mdtest's separate iterations, flattened).
    pub const ALL: [Phase; 6] = [
        Phase::DirCreate,
        Phase::DirStat,
        Phase::FileCreate,
        Phase::FileStat,
        Phase::FileRemove,
        Phase::DirRemove,
    ];

    /// Whether this phase mutates the namespace.
    pub fn is_mutation(self) -> bool {
        !matches!(self, Phase::DirStat | Phase::FileStat)
    }

    /// Human-readable name matching the paper's figure captions.
    pub fn label(self) -> &'static str {
        match self {
            Phase::DirCreate => "Directory creation",
            Phase::DirStat => "Directory stat",
            Phase::DirRemove => "Directory removal",
            Phase::FileCreate => "File creation",
            Phase::FileStat => "File stat",
            Phase::FileRemove => "File removal",
        }
    }
}

/// A primitive metadata operation against a native filesystem (the Basic
/// Lustre / PVFS2 baselines run these directly; DUFS clients run the
/// equivalent `MetaOp`s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeOp {
    /// mkdir(path)
    Mkdir(String),
    /// rmdir(path)
    Rmdir(String),
    /// creat(path)
    Create(String),
    /// unlink(path)
    Unlink(String),
    /// stat(path) of a directory
    StatDir(String),
    /// stat(path) of a file
    StatFile(String),
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Total client processes (the x-axis of Figs 7–10).
    pub processes: usize,
    /// Tree fan-out (paper: 10).
    pub fanout: usize,
    /// Directories each process creates (tree size).
    pub dirs_per_proc: usize,
    /// Files each process creates.
    pub files_per_proc: usize,
    /// Which phases to run (default: all six).
    pub phases: Vec<Phase>,
    /// Shared-directory mode (§V: "experiments where many files are
    /// created in a single directory"): every process's files live
    /// directly in `/mdtest`, so all creates contend on one parent.
    /// Directory phases keep their private trees.
    pub shared_dir: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::mdtest(64, 60)
    }
}

impl WorkloadSpec {
    /// The paper's mdtest run (§V): fan-out 10, `items` directories and
    /// `items` files per process, all six phases, unique directories.
    pub fn mdtest(processes: usize, items: usize) -> Self {
        WorkloadSpec {
            processes,
            fanout: 10,
            dirs_per_proc: items,
            files_per_proc: items,
            phases: Phase::ALL.to_vec(),
            shared_dir: false,
        }
    }

    /// Root of one process's private subtree.
    pub fn proc_root(proc: usize) -> String {
        format!("/mdtest/p{proc}")
    }

    /// Paths every process needs to exist before the phases start (the
    /// shared root and its own subtree root). Created during setup, not
    /// measured — mdtest does the same.
    pub fn setup_paths(&self, proc: usize) -> Vec<String> {
        vec!["/mdtest".to_string(), Self::proc_root(proc)]
    }

    /// Directory paths of process `proc` in creation (parent-first) order.
    pub fn dir_paths(&self, proc: usize) -> Vec<String> {
        let root = Self::proc_root(proc);
        let mut out = Vec::with_capacity(self.dirs_per_proc);
        for j in 0..self.dirs_per_proc {
            if j == 0 {
                out.push(format!("{root}/d0"));
            } else {
                let parent = (j - 1) / self.fanout;
                // Parent directory j's path is out[parent].
                out.push(format!("{}/d{j}", out[parent]));
            }
        }
        out
    }

    /// File paths of process `proc`: file `i` lives in directory
    /// `i mod dirs` of the tree (round-robin), or in the subtree root if no
    /// directories are configured.
    pub fn file_paths(&self, proc: usize) -> Vec<String> {
        if self.shared_dir {
            // One directory for everyone: names disambiguated by process.
            return (0..self.files_per_proc).map(|i| format!("/mdtest/p{proc}-f{i}")).collect();
        }
        let dirs = self.dir_paths(proc);
        let root = Self::proc_root(proc);
        (0..self.files_per_proc)
            .map(|i| {
                if dirs.is_empty() {
                    format!("{root}/f{i}")
                } else {
                    format!("{}/f{i}", dirs[i % dirs.len()])
                }
            })
            .collect()
    }

    /// The operations process `proc` performs in `phase`, in order.
    pub fn ops_for(&self, proc: usize, phase: Phase) -> Vec<NativeOp> {
        match phase {
            Phase::DirCreate => self.dir_paths(proc).into_iter().map(NativeOp::Mkdir).collect(),
            Phase::DirStat => self.dir_paths(proc).into_iter().map(NativeOp::StatDir).collect(),
            Phase::DirRemove => {
                let mut v: Vec<NativeOp> =
                    self.dir_paths(proc).into_iter().map(NativeOp::Rmdir).collect();
                v.reverse(); // children before parents
                v
            }
            Phase::FileCreate => self.file_paths(proc).into_iter().map(NativeOp::Create).collect(),
            Phase::FileStat => self.file_paths(proc).into_iter().map(NativeOp::StatFile).collect(),
            Phase::FileRemove => self.file_paths(proc).into_iter().map(NativeOp::Unlink).collect(),
        }
    }

    /// Maximum tree depth the directory layout reaches (for documentation
    /// and tests: ~5 at the paper's scales).
    pub fn tree_depth(&self) -> usize {
        let mut depth = 0;
        let mut j = self.dirs_per_proc.saturating_sub(1);
        while j > 0 {
            j = (j - 1) / self.fanout;
            depth += 1;
        }
        depth + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec { files_per_proc: 30, ..WorkloadSpec::mdtest(4, 25) }
    }

    #[test]
    fn dir_tree_is_parent_first_and_fanout_bounded() {
        let s = spec();
        let dirs = s.dir_paths(0);
        assert_eq!(dirs.len(), 25);
        assert_eq!(dirs[0], "/mdtest/p0/d0");
        // Each path's parent must appear earlier in the list.
        for (j, d) in dirs.iter().enumerate().skip(1) {
            let parent = &dirs[(j - 1) / 10];
            assert!(d.starts_with(parent.as_str()), "{d} under {parent}");
        }
        // Fan-out: d0 has children d1..=d10 (10 children max).
        let children_of_d0 = dirs
            .iter()
            .filter(|d| d.starts_with("/mdtest/p0/d0/") && d.matches('/').count() == 4)
            .count();
        assert!(children_of_d0 <= 10);
    }

    #[test]
    fn files_round_robin_over_dirs() {
        let s = spec();
        let files = s.file_paths(1);
        assert_eq!(files.len(), 30);
        let dirs = s.dir_paths(1);
        assert!(files[0].starts_with(&dirs[0]));
        assert!(files[1].starts_with(&dirs[1]));
        // Wraps around after 25 dirs.
        assert!(files[25].starts_with(&dirs[0]));
    }

    #[test]
    fn remove_phase_is_reverse_of_create() {
        let s = spec();
        let creates = s.ops_for(0, Phase::DirCreate);
        let removes = s.ops_for(0, Phase::DirRemove);
        assert_eq!(creates.len(), removes.len());
        match (&creates[0], removes.last().unwrap()) {
            (NativeOp::Mkdir(a), NativeOp::Rmdir(b)) => assert_eq!(a, b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn processes_have_disjoint_namespaces() {
        let s = spec();
        let a = s.dir_paths(0);
        let b = s.dir_paths(1);
        for p in &a {
            assert!(!b.contains(p));
        }
    }

    #[test]
    fn depth_matches_paper_at_scale() {
        // Fan-out 10: a few hundred directories reach depth ~3-4; the
        // paper's full runs (thousands of items) reach 5. Verify the
        // formula's monotonicity.
        let mut s = spec();
        s.dirs_per_proc = 11_111; // 1+10+100+1000+10000 → depth 5
        assert_eq!(s.tree_depth(), 5);
        s.dirs_per_proc = 11;
        assert_eq!(s.tree_depth(), 2);
    }

    #[test]
    fn phase_labels_and_mutation_flags() {
        assert_eq!(Phase::DirCreate.label(), "Directory creation");
        assert!(Phase::DirCreate.is_mutation());
        assert!(!Phase::FileStat.is_mutation());
        assert_eq!(Phase::ALL.len(), 6);
    }
}
