//! Interference workloads ("cache hogs") for the multi-core co-run
//! experiments — the co-running applications whose presence motivates both
//! of the paper's use cases (§5.1, §6.2).

use crate::sink::TraceSink;
use xmem_core::attrs::{AccessPattern, AtomAttributes, DataType, Reuse};

/// A streaming hog: sweeps a `bytes`-sized buffer line by line for
/// `accesses` loads. With XMem it honestly expresses *zero reuse*, letting
/// the shared cache deprioritize it (Table 1, "bypassing data that has no
/// reuse").
pub fn stream_hog<S: TraceSink + ?Sized>(sink: &mut S, bytes: u64, accesses: u64, compute: u32) {
    let atom = sink.create_atom(
        "hog_stream",
        AtomAttributes::builder()
            .data_type(DataType::Float64)
            .access_pattern(AccessPattern::sequential(64))
            .reuse(Reuse::NONE)
            .build(),
    );
    let base = sink.alloc(bytes, Some(atom));
    sink.map(atom, base, bytes);
    sink.activate(atom);
    let lines = (bytes / 64).max(1);
    for i in 0..accesses {
        sink.load(base + (i % lines) * 64);
        sink.compute(compute);
    }
    sink.deactivate(atom);
    sink.unmap(base, bytes);
}

/// A random-access hog: uniformly random lines over a `bytes` buffer,
/// expressing a non-deterministic pattern.
pub fn random_hog<S: TraceSink + ?Sized>(sink: &mut S, bytes: u64, accesses: u64, compute: u32) {
    let atom = sink.create_atom(
        "hog_random",
        AtomAttributes::builder()
            .access_pattern(AccessPattern::NonDet)
            .reuse(Reuse::NONE)
            .build(),
    );
    let base = sink.alloc(bytes, Some(atom));
    sink.map(atom, base, bytes);
    sink.activate(atom);
    let lines = (bytes / 64).max(1);
    let mut state = 0x243F6A8885A308D3u64 ^ bytes;
    for _ in 0..accesses {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sink.load(base + ((state >> 24) % lines) * 64);
        sink.compute(compute);
    }
    sink.deactivate(atom);
    sink.unmap(base, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{LogSink, TraceEvent};

    /// The attributes of every atom `log` created, in creation order.
    fn atoms(log: &LogSink) -> Vec<&AtomAttributes> {
        log.events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Create { attrs, .. } => Some(attrs),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stream_hog_emits_requested_accesses() {
        let mut s = LogSink::new();
        stream_hog(&mut s, 64 << 10, 1000, 4);
        assert_eq!(s.ops().filter(|o| o.is_memory()).count(), 1000);
        assert_eq!(atoms(&s).len(), 1);
    }

    #[test]
    fn random_hog_is_deterministic_and_spread() {
        let run = || {
            let mut s = LogSink::new();
            random_hog(&mut s, 64 << 10, 500, 2);
            s.into_events()
        };
        assert_eq!(run(), run());
        let mut s = LogSink::new();
        random_hog(&mut s, 64 << 10, 500, 2);
        let distinct: std::collections::HashSet<u64> = s
            .ops()
            .filter_map(|o| match o {
                cpu_sim::trace::Op::Load { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert!(
            distinct.len() > 300,
            "only {} distinct lines",
            distinct.len()
        );
    }

    #[test]
    fn hogs_express_zero_reuse() {
        let mut s = LogSink::new();
        stream_hog(&mut s, 4096, 10, 1);
        assert_eq!(atoms(&s)[0].reuse(), xmem_core::attrs::Reuse::NONE);
    }
}
