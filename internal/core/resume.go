package core

import (
	"fmt"

	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// ResumeEngine builds an engine whose training state continues from a
// recovered checkpoint: every worker's parameters and optimizer are set to
// the recovered state and iteration numbering resumes where the failed job
// stopped. With the same Options (seed included), the resumed trajectory
// is the one the original job would have taken — the failover tests assert
// this bit-exactly. Under the PP strategy the global optimizer state is
// split back into per-stage states (splitOptState, the inverse of
// GlobalOptState's assembly); under Plus the CPU replica is restored
// alongside the workers, so its persist cadence also matches the
// uninterrupted run.
func ResumeEngine(opts Options, params tensor.Vector, optState optim.State, iter int64) (*Engine, error) {
	e, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	if err := e.restoreState(params, optState, iter); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) restoreState(params tensor.Vector, optState optim.State, iter int64) error {
	if len(params) != e.opts.Spec.NumParams() {
		return fmt.Errorf("core: resume with %d params, model has %d", len(params), e.opts.Spec.NumParams())
	}
	if iter < 0 {
		return fmt.Errorf("core: resume at negative iteration %d", iter)
	}
	if e.opts.PP != nil {
		copy(e.params[0].Flat, params)
		parts, err := splitOptState(optState, e.stages)
		if err != nil {
			return err
		}
		for s := range e.opts2 {
			o, err := optim.FromState(parts[s], e.stages[s].Size)
			if err != nil {
				return err
			}
			e.opts2[s] = o
		}
	} else {
		for w := range e.params {
			copy(e.params[w].Flat, params)
			o, err := optim.FromState(optState, len(params))
			if err != nil {
				return err
			}
			e.opts2[w] = o
		}
	}
	if e.rep != nil {
		if err := e.rep.restore(params, optState, iter); err != nil {
			return err
		}
	}
	e.iter = iter
	return nil
}
