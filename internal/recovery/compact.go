package recovery

import (
	"fmt"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/storage"
)

// Compact folds the store's newest recoverable state into a fresh full
// checkpoint and garbage-collects the records it supersedes — log
// compaction for checkpoint stores. It bounds future recovery cost (the
// differential chain restarts from zero) without involving the training
// job, so an operator can run it on a schedule or after long
// full-checkpoint gaps.
//
// It returns the compacted state and the number of store objects freed.
// Compacting a store whose newest state is already a full checkpoint just
// garbage-collects stale records.
func Compact(store storage.Store) (*State, int, error) {
	st, applied, err := Latest(store)
	if err != nil {
		return nil, 0, err
	}
	if applied > 0 {
		full := &checkpoint.Full{Iter: st.Iter, Params: st.Params, Opt: st.Opt}
		if _, err := checkpoint.SaveFull(store, full); err != nil {
			return nil, 0, fmt.Errorf("recovery: compact write: %w", err)
		}
	}
	m, err := checkpoint.Scan(store)
	if err != nil {
		return st, 0, err
	}
	freed, err := checkpoint.GC(store, m)
	return st, len(freed), err
}
