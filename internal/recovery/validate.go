// Chain validation and quarantine: recovery that stays correct when the
// store itself is damaged. The paper's failure model (§5.3) is frequent,
// partial, mid-flight failures — which means the persisted chain can hold
// torn objects, bit-flipped records, or holes left by an interrupted GC.
// LatestValid walks the manifest, CRC-verifies every object it needs
// (decoding re-checks the record CRCs written by the checkpoint package),
// quarantines what fails, and falls back to the newest fully-valid prefix
// instead of erroring out.
package recovery

import (
	"fmt"
	"io"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

// QuarantinePrefix is prepended to the names of quarantined objects.
// Quarantined objects are invisible to manifest scans (which only list
// full-/diff- names) but remain in the store for forensics.
const QuarantinePrefix = "quarantined-"

// ObjectStatus classifies one checkpoint object during validation.
type ObjectStatus int

const (
	// StatusValid: the object decoded and its CRC verified.
	StatusValid ObjectStatus = iota
	// StatusCorrupt: the object exists but fails to decode (torn write,
	// bit flip, truncation).
	StatusCorrupt
	// StatusMissing: the object is named by the manifest but absent
	// (e.g. a GC interrupted mid-delete, or a lost device).
	StatusMissing
)

func (s ObjectStatus) String() string {
	switch s {
	case StatusValid:
		return "valid"
	case StatusCorrupt:
		return "corrupt"
	case StatusMissing:
		return "missing"
	default:
		return fmt.Sprintf("ObjectStatus(%d)", int(s))
	}
}

// ObjectReport records the validation outcome for one checkpoint object.
type ObjectReport struct {
	Name   string
	IsFull bool
	Status ObjectStatus
	Err    error // decode/load error for corrupt or missing objects
}

// Report summarizes a validation or quarantine pass.
type Report struct {
	Objects     []ObjectReport
	Quarantined []string // objects moved under QuarantinePrefix
	// BaseName/BaseIter identify the full checkpoint recovery anchored
	// on (empty/-1 when no valid full exists). RecoverableIter is the
	// newest iteration reachable from that base through valid
	// differentials (-1 when nothing is recoverable).
	BaseName        string
	BaseIter        int64
	RecoverableIter int64
}

// Counts returns how many objects were valid, corrupt, and missing.
func (r *Report) Counts() (valid, corrupt, missing int) {
	for _, o := range r.Objects {
		switch o.Status {
		case StatusValid:
			valid++
		case StatusCorrupt:
			corrupt++
		case StatusMissing:
			missing++
		}
	}
	return
}

// Clean reports whether every object validated.
func (r *Report) Clean() bool {
	_, corrupt, missing := r.Counts()
	return corrupt == 0 && missing == 0
}

// ValidateOptions controls LatestValid and Verify.
type ValidateOptions struct {
	// LoadRetries is the number of attempts per object load (default 3).
	// Retrying distinguishes transient read faults (torn reads, read-side
	// bit flips) from durable corruption: a flaky read heals on retry, a
	// damaged object fails every time.
	LoadRetries int
	// Quarantine moves corrupt objects under QuarantinePrefix so later
	// scans and GC passes never trip over them again. Missing objects
	// have nothing to move and are only reported.
	Quarantine bool
	// Events, when non-nil, receives recover.* events (anchor selection,
	// quarantines, completion) during LatestValid. Nil disables emission.
	Events *obs.EventLog
	// Trace, when non-nil, records the recovery envelope and the apply
	// spans of LatestValid and FromPeers, the same spans Options.Trace
	// records for LatestParallel.
	Trace *trace.Recorder
}

func (o ValidateOptions) withDefaults() ValidateOptions {
	if o.LoadRetries < 1 {
		o.LoadRetries = 3
	}
	return o
}

// statusOf classifies the outcome of a pipeline load.
func statusOf(err error) ObjectStatus {
	switch {
	case err == nil:
		return StatusValid
	case storage.IsNotExist(err):
		return StatusMissing
	}
	return StatusCorrupt
}

// quarantine moves an object under QuarantinePrefix, best effort: the
// copy preserves whatever bytes are still readable; the original is
// removed either way so the damaged object leaves the chain's namespace.
func quarantine(store storage.Store, name string) error {
	if r, err := store.Open(name); err == nil {
		data, _ := io.ReadAll(r) // partial reads still preserve a prefix
		_ = r.Close()            // forensic read is best effort anyway
		if err := storage.WriteObject(store, QuarantinePrefix+name, data); err != nil {
			return fmt.Errorf("recovery: quarantine copy %s: %w", name, err)
		}
	}
	if err := store.Delete(name); err != nil && !storage.IsNotExist(err) {
		return fmt.Errorf("recovery: quarantine delete %s: %w", name, err)
	}
	return nil
}

// LatestValid recovers to the newest *fully-valid* state in the store.
// Unlike Latest, it survives damage: corrupt or missing full checkpoints
// are skipped (falling back to the next older full), the differential
// chain is truncated at the first object that fails CRC verification, and
// — with opts.Quarantine — damaged objects are moved aside so subsequent
// scans never consider them. Transient read faults are absorbed by
// per-object load retries. The returned report lists every object
// examined and where recovery anchored.
func LatestValid(store storage.Store, opts ValidateOptions) (*State, *Report, error) {
	p := validating(store, opts)
	defer p.envelope()()
	return p.latestValid(opts)
}

// validating returns the pipeline of LatestValid and FromPeers, at depth 1: a
// seeded Chaos read depends on the reads before it, and none may pass damage.
func validating(store storage.Store, opts ValidateOptions) *pipeline {
	p := newPipeline(store, 0, 1, opts.Trace)
	p.attempts = opts.withDefaults().LoadRetries
	return p
}

// latestValid is LatestValid inside the caller's recovery envelope.
func (p *pipeline) latestValid(opts ValidateOptions) (*State, *Report, error) {
	report := &Report{BaseIter: -1, RecoverableIter: -1}
	m, err := checkpoint.Scan(p.store)
	if err != nil {
		return nil, report, err
	}
	// note records one object's outcome, moves it aside when it is
	// corrupt and quarantine is on, and reports whether it was valid.
	note := func(e checkpoint.Entry, err error) bool {
		status := statusOf(err)
		report.Objects = append(report.Objects, ObjectReport{Name: e.Name, IsFull: e.IsFull, Status: status, Err: err})
		if opts.Quarantine && status == StatusCorrupt && quarantine(p.store, e.Name) == nil {
			report.Quarantined = append(report.Quarantined, e.Name)
			opts.Events.Emit("recover.quarantine", map[string]any{
				"object": e.Name, "status": status.String(),
			})
		}
		return status == StatusValid
	}
	// Newest decodable full checkpoint, walking backward past damage.
	var full *checkpoint.Full
	var base checkpoint.Entry
	for i := len(m.Fulls) - 1; i >= 0 && full == nil; i-- {
		base = m.Fulls[i]
		f, err := p.loadFull(base)
		if note(base, err) {
			full = f
		}
	}
	if full == nil {
		return nil, report, fmt.Errorf("recovery: no valid full checkpoint in store")
	}
	report.BaseName, report.BaseIter = base.Name, full.Iter
	opts.Events.Emit("recover.anchor", map[string]any{"object": base.Name, "iter": full.Iter})
	// Validate the chain as it is replayed; truncate at the first damage.
	chain := m.DiffsAfter(full.Iter)
	load, wait := p.prefetch(chain, p.loadDiff)
	defer wait()
	valid := 0
	st, err := p.replay(full, func() (*checkpoint.Diff, error) {
		d, err := load()
		if valid == len(chain) || !note(chain[valid], err) {
			return nil, nil
		}
		valid++
		return d, nil
	})
	if err != nil {
		return nil, report, err
	}
	report.RecoverableIter = st.Iter
	opts.Events.Emit("recover.complete", map[string]any{
		"iter": st.Iter, "base_iter": full.Iter, "diffs": valid,
		"quarantined": len(report.Quarantined),
	})
	return st, report, nil
}

// Verify CRC-checks every checkpoint object in the store without mutating
// anything and reports per-object validity plus where recovery would
// anchor. It is the read-only companion of LatestValid, used by the
// lowdiffinspect verify subcommand.
func Verify(store storage.Store, opts ValidateOptions) (*Report, error) {
	opts = opts.withDefaults()
	report := &Report{BaseIter: -1, RecoverableIter: -1}
	m, err := checkpoint.Scan(store)
	if err != nil {
		return nil, err
	}
	p := &pipeline{store: store, attempts: opts.LoadRetries}
	valid := make(map[string]bool, len(m.Fulls)+len(m.Diffs))
	note := func(e checkpoint.Entry, err error) {
		valid[e.Name] = err == nil
		report.Objects = append(report.Objects, ObjectReport{Name: e.Name, IsFull: e.IsFull, Status: statusOf(err), Err: err})
	}
	for _, e := range m.Fulls {
		_, err := p.loadFull(e)
		note(e, err)
	}
	for _, e := range m.Diffs {
		_, err := p.loadDiff(e)
		note(e, err)
	}
	// Where recovery would anchor: newest valid full, then the contiguous
	// chain of valid differentials after it.
	for i := len(m.Fulls) - 1; i >= 0; i-- {
		if !valid[m.Fulls[i].Name] {
			continue
		}
		report.BaseName, report.BaseIter = m.Fulls[i].Name, m.Fulls[i].Iter
		report.RecoverableIter = m.Fulls[i].Iter
		for _, d := range m.DiffsAfter(m.Fulls[i].Iter) {
			if !valid[d.Name] {
				break
			}
			report.RecoverableIter = d.LastIter
		}
		break
	}
	return report, nil
}
