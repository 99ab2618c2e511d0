// Peer-side recovery: reconstruct a crashed worker's state from any
// surviving peer's differential window chained onto the last full
// checkpoint. The storage side reuses LatestValid (chain validation,
// quarantine, retries) so a damaged store degrades gracefully; the peer
// side then extends the recovered state with the in-memory gradients the
// survivors retained — bit-exactly, through the same apply stage the
// storage chain goes through.
package recovery

import (
	"fmt"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/storage"
)

// PeerReport extends the storage validation report with the peer-side
// outcome of FromPeers.
type PeerReport struct {
	Report
	// PeerRank is the surviving rank whose window extended recovery
	// (-1 when no window extended the storage state).
	PeerRank int
	// PeerDiffs is how many retained differentials were replayed from
	// that window.
	PeerDiffs int
	// StorageIter is the iteration LatestValid reached before the peer
	// windows took over.
	StorageIter int64
}

// FromPeers recovers to the newest state reachable from the store plus the
// surviving peers' windows: LatestValid anchors on the newest valid full
// checkpoint and replays whatever valid differential chain the store holds
// (the fallback path's writes), then the surviving peer window reaching
// farthest extends the state with its retained gradients. Each retained
// payload is checksum-verified by the window before replay.
//
// A damaged or empty peer plane is not an error: recovery simply stops at
// the storage state (PeerRank == -1), which is exactly the graceful-
// degradation contract — the fallback path persisted what the windows
// could not cover.
func FromPeers(store storage.Store, peers *comm.Peers, opts ValidateOptions) (*State, *PeerReport, error) {
	p := validating(store, opts)
	defer p.envelope()()
	st, rep, err := p.latestValid(opts)
	preport := &PeerReport{PeerRank: -1, StorageIter: -1}
	if rep != nil {
		preport.Report = *rep
	}
	if err != nil {
		return nil, preport, err
	}
	preport.StorageIter = st.Iter
	if peers == nil {
		return st, preport, nil
	}
	rank, grads, target, perr := peers.BestRestore(st.Iter)
	if perr != nil || target == st.Iter {
		// No surviving window extends the storage state; the explicit
		// degradation signal is PeerRank == -1.
		opts.Events.Emit("recover.peer_gap", map[string]any{
			"iter": st.Iter, "survivors": len(peers.Survivors()),
		})
		return st, preport, nil
	}
	// Replay the retained gradients through the canonical diff path, one
	// per iteration, exactly as the live optimizer consumed them.
	diffs := make([]*checkpoint.Diff, 0, len(grads))
	for i, g := range grads {
		iter := st.Iter + int64(i) + 1
		diffs = append(diffs, &checkpoint.Diff{Kind: checkpoint.KindGradient, FirstIter: iter, LastIter: iter, Count: 1, Payload: g})
	}
	// st is this call's own: its buffers move through the replay into ext.
	ext, err := p.replay(&checkpoint.Full{Iter: st.Iter, Params: st.Params, Opt: st.Opt}, fromSlice(diffs))
	if err != nil {
		return nil, preport, fmt.Errorf("recovery: peer window replay from rank %d: %w", rank, err)
	}
	preport.PeerRank = rank
	preport.PeerDiffs = len(diffs)
	preport.RecoverableIter = ext.Iter
	opts.Events.Emit("recover.peer", map[string]any{
		"rank": rank, "from": st.Iter, "to": ext.Iter, "diffs": len(diffs),
	})
	return ext, preport, nil
}
