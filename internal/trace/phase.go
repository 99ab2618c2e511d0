package trace

// Canonical tracks. Every span the engines record lands on one of these
// rows (plus "recovery" for restart replay); the Profile analyzer keys
// its critical-path priorities and overlap-gap detection off them, so
// instrumentation must use the constants rather than ad-hoc strings.
const (
	TrackTrain      = "train"      // the training step loop (worker/stage 0)
	TrackComm       = "comm"       // peer retain plane (internal/comm)
	TrackSnapshot   = "snapshot"   // async snapshot offload workers (Plus)
	TrackCheckpoint = "checkpoint" // snapshot consumers: merge/assemble/apply
	TrackPersist    = "persist"    // storage writes: diff batches and fulls
	TrackRecovery   = "recovery"   // restart replay (the internal/recovery pipeline)
)

// Canonical phases. PhaseIteration is the per-step envelope on the train
// track; the rest attribute time inside (or beside) it.
const (
	PhaseIteration = "iteration"  // envelope: one whole optimizer step
	PhaseCompute   = "compute"    // forward/backward (oracle.Local / LayerGrad)
	PhaseCompress  = "compress"   // gradient compression
	PhaseAllGather = "allgather"  // gradient exchange (AllGatherSparse / ring)
	PhaseRetain    = "retain"     // peer-window retain (the peer checkpoint)
	PhaseMerge     = "merge"      // diff merging (BatchedWriter flush, PP merge)
	PhaseApply     = "apply"      // optimizer apply of the synced gradient
	PhaseSnapshot  = "snapshot"   // state clone / snapshot copy for checkpointing
	PhaseDiffWrite = "diff-write" // batched differential write to storage
	PhaseFullWrite = "full-write" // full checkpoint write to storage
	PhaseQueueWait = "queue-wait" // blocked on a hand-off queue or snapshot drain
	PhaseRecovery  = "recovery"   // checkpoint chain replay on restart
)

// CanonicalPhases lists the taxonomy in pipeline order (envelope first).
// Reports iterate this slice — not a map — so output order is fixed.
func CanonicalPhases() []string {
	return []string{
		PhaseIteration, PhaseCompute, PhaseCompress, PhaseAllGather,
		PhaseRetain, PhaseMerge, PhaseApply, PhaseSnapshot,
		PhaseDiffWrite, PhaseFullWrite, PhaseQueueWait, PhaseRecovery,
	}
}

// IsStall reports whether a phase is waiting rather than working. Stall
// spans never count as "busy" for overlap-gap detection and lose
// critical-path ties to working spans.
func IsStall(phase string) bool {
	return phase == PhaseQueueWait
}

// trackPriority orders tracks for critical-path tie-breaks: when several
// tracks are busy at the same instant, the step is attributed to the
// earliest row here (the train loop is the step's backbone; persist work
// only matters when nothing upstream is running).
func trackPriority(track string) int {
	switch track {
	case TrackTrain:
		return 0
	case TrackComm:
		return 1
	case TrackSnapshot:
		return 2
	case TrackCheckpoint:
		return 3
	case TrackPersist:
		return 4
	case TrackRecovery:
		return 5
	}
	return 6
}
