package suite

// Shard-journal merging: the deterministic half of sharded multi-process
// sweeps. A sharded sweep partitions the axis across independent worker
// processes, each checkpointing its cells into its own journal segment
// (a plain journal file). This file folds those segments back into the
// canonical campaign journal — in axis order, so the merged journal (and
// everything rendered from it) is independent of which shard finished
// first, how often shards were retried, or how the axis was partitioned.
//
// The merge lives in package suite, on the deterministic side of the
// two-plane split: it reads files and reorders cells but consults no
// clock and spawns no process. The wall-clock machinery that produces
// the segments (os/exec children, heartbeats, retry backoff) lives in
// internal/shard, which deterministic packages must not import
// (greenvet's layering rules pin both directions).

// MergeShardJournals stages every (procs, benchmark) cell of the sweep
// from the segments into dst, walking the axis in order and the
// benchmarks in suite order. A cell found in several segments (a shard
// retried after a partial bisection) is taken from the first segment
// holding it — cells are deterministic computations keyed by (system,
// procs, placement, benchmark), so every copy is identical. Cells dst
// already holds (seeded from a resumed campaign) are kept unless a
// segment provides a fresh copy.
//
// The merged cells are appended to dst in one write. Returned is the list
// of cell keys no segment (nor dst) could supply — the cells lost to
// quarantined shards, which the caller records explicitly.
func MergeShardJournals(dst *Journal, segments []*Journal, system, placement string, axis []int, benches []string) ([]string, error) {
	var missing []string
	for _, p := range axis {
		for _, b := range benches {
			key := CellKey(system, p, placement, b)
			staged := false
			for _, seg := range segments {
				if run, ok := seg.Lookup(key); ok {
					tr, _ := seg.LookupTrace(key)
					dst.Stage(key, run, tr)
					staged = true
					break
				}
			}
			if staged {
				continue
			}
			if _, ok := dst.Lookup(key); !ok {
				missing = append(missing, key)
			}
		}
	}
	return missing, dst.Flush()
}
