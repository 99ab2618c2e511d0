package recovery

import (
	"fmt"

	"lowdiff/internal/storage"
)

// ToIter recovers the newest restorable state at or before the target
// iteration: the newest full checkpoint with Iter <= target plus the
// contiguous differential chain up to (not past) target. Batched
// differentials cannot be split, so the result may stop at the last batch
// boundary before target; the returned state's Iter says where it landed.
//
// This serves point-in-time restores — rolling back past a bad data batch
// or a loss spike — which differential checkpointing makes cheap: any
// iteration between full checkpoints is reachable, not just the sparse
// full-checkpoint grid.
func ToIter(store storage.Store, target int64) (*State, int, error) {
	if target < 0 {
		return nil, 0, fmt.Errorf("recovery: negative target iteration %d", target)
	}
	return newPipeline(store, 0, lookAhead, nil).strict(target, false)
}
