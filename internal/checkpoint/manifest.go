package checkpoint

import (
	"fmt"
	"sort"
	"strings"

	"lowdiff/internal/storage"
)

// Canonical checkpoint object names. Iterations are zero-padded so
// lexicographic order equals numeric order for store listings.
//
//	full-000000000042.ckpt
//	diff-000000000043-000000000046.ckpt

// FullName returns the canonical object name of a full checkpoint.
func FullName(iter int64) string { return fmt.Sprintf("full-%012d.ckpt", iter) }

// DiffName returns the canonical object name of a differential checkpoint
// covering [first, last].
func DiffName(first, last int64) string {
	return fmt.Sprintf("diff-%012d-%012d.ckpt", first, last)
}

// Entry describes one checkpoint object found in a store.
type Entry struct {
	Name      string
	IsFull    bool
	Iter      int64 // full checkpoints: iteration
	FirstIter int64 // differentials: covered range
	LastIter  int64
}

// parseIter parses one all-digit iteration field. At most 18 digits keeps
// the value far from int64 overflow (canonical names pad to 12).
func parseIter(s string) (int64, bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// ParseName parses a canonical checkpoint object name. Parsing is strict:
// a name is accepted only when re-deriving it from the parsed iterations
// reproduces it byte for byte, so signs, spaces, stray padding, and
// trailing junk (e.g. "full-7.ckpt.ckpt") are all rejected rather than
// silently admitted into the manifest.
func ParseName(name string) (Entry, error) {
	switch {
	case strings.HasPrefix(name, "full-") && strings.HasSuffix(name, ".ckpt"):
		iter, ok := parseIter(name[len("full-") : len(name)-len(".ckpt")])
		if !ok || FullName(iter) != name {
			return Entry{}, fmt.Errorf("checkpoint: malformed full name %q", name)
		}
		return Entry{Name: name, IsFull: true, Iter: iter}, nil
	case strings.HasPrefix(name, "diff-") && strings.HasSuffix(name, ".ckpt"):
		fields := name[len("diff-") : len(name)-len(".ckpt")]
		fs, ls, found := strings.Cut(fields, "-")
		if !found {
			return Entry{}, fmt.Errorf("checkpoint: malformed diff name %q", name)
		}
		first, ok1 := parseIter(fs)
		last, ok2 := parseIter(ls)
		if !ok1 || !ok2 || DiffName(first, last) != name {
			return Entry{}, fmt.Errorf("checkpoint: malformed diff name %q", name)
		}
		if first > last {
			return Entry{}, fmt.Errorf("checkpoint: diff name %q has inverted range", name)
		}
		return Entry{Name: name, FirstIter: first, LastIter: last}, nil
	default:
		return Entry{}, fmt.Errorf("checkpoint: unrecognized checkpoint name %q", name)
	}
}

// Manifest is the recovery-relevant view of a store: the latest full
// checkpoint and the differentials that extend it, in iteration order.
type Manifest struct {
	Fulls []Entry // all full checkpoints, ascending by Iter
	Diffs []Entry // all differentials, ascending by FirstIter
}

// Scan lists a store and builds a manifest. Unrecognized object names are
// ignored (the store may hold other artifacts). The manifest order is
// independent of the store's listing order: names are re-sorted here and
// entry ordering is fully tie-broken, so chain reconstruction — and
// therefore recovery — is deterministic even over a store that ignores
// the List contract.
func Scan(s storage.Store) (*Manifest, error) {
	var m Manifest
	for _, prefix := range []string{"full-", "diff-"} {
		names, err := s.List(prefix)
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		for _, name := range names {
			e, err := ParseName(name)
			if err != nil {
				continue
			}
			if e.IsFull {
				m.Fulls = append(m.Fulls, e)
			} else {
				m.Diffs = append(m.Diffs, e)
			}
		}
	}
	sort.Slice(m.Fulls, func(i, j int) bool {
		if m.Fulls[i].Iter != m.Fulls[j].Iter {
			return m.Fulls[i].Iter < m.Fulls[j].Iter
		}
		return m.Fulls[i].Name < m.Fulls[j].Name
	})
	sort.Slice(m.Diffs, func(i, j int) bool {
		a, b := m.Diffs[i], m.Diffs[j]
		if a.FirstIter != b.FirstIter {
			return a.FirstIter < b.FirstIter
		}
		if a.LastIter != b.LastIter {
			return a.LastIter < b.LastIter
		}
		return a.Name < b.Name
	})
	return &m, nil
}

// LatestFull returns the most recent full checkpoint entry, or false if the
// store holds none.
func (m *Manifest) LatestFull() (Entry, bool) {
	if len(m.Fulls) == 0 {
		return Entry{}, false
	}
	return m.Fulls[len(m.Fulls)-1], true
}

// DiffsAfter returns the differentials forming a contiguous chain starting
// at iteration iter+1, in order. The chain stops at the first gap, so a
// missing differential bounds recovery instead of silently skipping
// iterations.
func (m *Manifest) DiffsAfter(iter int64) []Entry {
	var out []Entry
	next := iter + 1
	for _, d := range m.Diffs {
		if d.LastIter <= iter {
			continue
		}
		if d.FirstIter != next {
			if d.FirstIter > next {
				break
			}
			// Overlapping batch that starts at or before the full
			// checkpoint but extends past it cannot be partially applied.
			break
		}
		out = append(out, d)
		next = d.LastIter + 1
	}
	return out
}

// GC deletes the checkpoints that can no longer participate in recovery
// once the newest keep full checkpoints are retained (keep defaults to 1):
// every older full, and every differential covered by the oldest retained
// full, including one that landed after an earlier pass (a differential
// writer can lag the full persister). It returns the freed object names.
func GC(s storage.Store, m *Manifest, keep ...int) ([]string, error) {
	k := 1
	if len(keep) > 0 {
		k = max(keep[0], 1)
	}
	if len(m.Fulls) == 0 {
		return nil, nil
	}
	horizon := m.Fulls[max(len(m.Fulls)-k, 0)].Iter
	var freed []string
	for _, f := range m.Fulls {
		if f.Iter < horizon {
			if err := s.Delete(f.Name); err != nil && !storage.IsNotExist(err) {
				return freed, err
			}
			freed = append(freed, f.Name)
		}
	}
	for _, d := range m.Diffs {
		if d.LastIter <= horizon {
			if err := s.Delete(d.Name); err != nil && !storage.IsNotExist(err) {
				return freed, err
			}
			freed = append(freed, d.Name)
		}
	}
	return freed, nil
}
