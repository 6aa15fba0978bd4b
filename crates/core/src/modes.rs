//! Execution modes: the three systems the paper compares end to end.

/// Which expert-parallel execution strategy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelismMode {
    /// DeepSpeed-MoE-style vanilla expert parallelism: round-robin expert
    /// placement, two Alltoalls per MoE layer (dispatch + combine), no
    /// context replication.
    Vanilla,
    /// ExFlow's context-coherent parallelism *without* affinity placement:
    /// one Alltoall per layer, one AllGather per iteration, round-robin
    /// placement (the "ExFlow w/o affinity" series of Fig. 10).
    ContextCoherent,
    /// Full ExFlow: context coherence plus staged affinity placement
    /// (the "ExFlow w. affinity" series).
    ContextCoherentAffinity,
}

impl ParallelismMode {
    /// All modes, in the order the paper's figures list them.
    pub const ALL: [ParallelismMode; 3] = [
        ParallelismMode::Vanilla,
        ParallelismMode::ContextCoherent,
        ParallelismMode::ContextCoherentAffinity,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            ParallelismMode::Vanilla => "Deepspeed (vanilla)",
            ParallelismMode::ContextCoherent => "ExFlow w/o affinity",
            ParallelismMode::ContextCoherentAffinity => "ExFlow w. affinity",
        }
    }

    /// Whether this mode keeps contexts coherent on every GPU.
    pub fn context_coherent(self) -> bool {
        !matches!(self, ParallelismMode::Vanilla)
    }

    /// Whether this mode uses affinity-optimized placement.
    pub fn uses_affinity(self) -> bool {
        matches!(self, ParallelismMode::ContextCoherentAffinity)
    }

    /// Alltoall collectives issued per MoE layer.
    pub fn alltoalls_per_layer(self) -> usize {
        if self.context_coherent() {
            1
        } else {
            2
        }
    }
}

impl std::fmt::Display for ParallelismMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_needs_two_alltoalls() {
        assert_eq!(ParallelismMode::Vanilla.alltoalls_per_layer(), 2);
        assert_eq!(ParallelismMode::ContextCoherent.alltoalls_per_layer(), 1);
        assert_eq!(
            ParallelismMode::ContextCoherentAffinity.alltoalls_per_layer(),
            1
        );
    }

    #[test]
    fn coherence_and_affinity_flags() {
        assert!(!ParallelismMode::Vanilla.context_coherent());
        assert!(ParallelismMode::ContextCoherent.context_coherent());
        assert!(!ParallelismMode::ContextCoherent.uses_affinity());
        assert!(ParallelismMode::ContextCoherentAffinity.uses_affinity());
    }

    #[test]
    fn labels_are_distinct() {
        let set: std::collections::BTreeSet<_> =
            ParallelismMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(set.len(), 3);
    }
}
