package trace

import (
	"math"
	"slices"
	"sort"
	"time"
)

// profile.go folds a recorded span timeline into the signals the overlap
// scheduler needs: per-iteration phase breakdowns, per-phase latency
// distributions, the critical path through each step, and overlap gaps
// (train idle while persist/comm tracks are busy, and the reverse —
// train busy while the checkpoint side has nothing to do). Everything is
// computed from the deterministic event ordering, uses no map iteration,
// and is therefore byte-stable for a fixed timeline.

// PhaseStats is the latency distribution of one (track, phase) pair.
type PhaseStats struct {
	Track string        `json:"track"`
	Phase string        `json:"phase"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	Max   time.Duration `json:"max_ns"`
}

// PhaseTotal is an aggregate duration attributed to one (track, phase).
type PhaseTotal struct {
	Track string        `json:"track"`
	Phase string        `json:"phase"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Segment is one piece of a step's critical path. An empty Track with
// Phase "idle" marks time where no span on any track was running.
type Segment struct {
	Track string        `json:"track,omitempty"`
	Phase string        `json:"phase"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Gap kinds.
const (
	// GapTrainStall: the train track is idle (or stalled in queue-wait)
	// while at least one other track is doing real work — the serialization
	// the paper's overlap argument wants to eliminate.
	GapTrainStall = "train-stall"
	// GapOverlapWindow: the train track is busy computing while the
	// snapshot/checkpoint/persist tracks are all idle — free room to
	// schedule DelayCheck-style partitioned snapshot work.
	GapOverlapWindow = "overlap-window"
)

// Gap is one maximal interval of a gap kind inside an iteration window.
type Gap struct {
	Kind  string        `json:"kind"`
	Iter  int64         `json:"iter"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Busy lists "track/phase" pairs active during the gap (for
	// train-stall: what the step was waiting on; for overlap-window:
	// what the train was doing).
	Busy []string `json:"busy,omitempty"`
}

// IterProfile is the breakdown of one iteration window. The window runs
// from the iteration envelope's start to the next envelope's start (the
// last window ends at the profile end), so inter-step work — inline full
// persists, batched flushes — is charged to the step that caused it.
type IterProfile struct {
	Iter     int64         `json:"iter"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Wall     time.Duration `json:"wall_ns"` // the envelope span's own duration
	Phases   []PhaseTotal  `json:"phases"`
	Critical []Segment     `json:"critical"`
	// Stall and Overlap are this window's share of the two gap kinds.
	Stall   time.Duration `json:"stall_ns"`
	Overlap time.Duration `json:"overlap_ns"`
	// Overlapped is checkpoint-plane work that actually ran while the
	// train track was busy; OverlapRatio divides it by the headroom
	// (Overlapped + Overlap — all train-busy time in the window).
	Overlapped   time.Duration `json:"overlapped_ns"`
	OverlapRatio float64       `json:"overlap_ratio"`
}

// Profile is the full analysis of one trace.
type Profile struct {
	Tracks []string      `json:"tracks"`
	Events int           `json:"events"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Step is the distribution of iteration envelope durations.
	Step   *PhaseStats   `json:"step,omitempty"`
	Phases []PhaseStats  `json:"phases"`
	Iters  []IterProfile `json:"iters,omitempty"`
	// Critical sums the per-iteration critical paths by (track, phase);
	// the "idle" row is time no track covered.
	Critical []PhaseTotal `json:"critical,omitempty"`
	Gaps     []Gap        `json:"gaps,omitempty"`
	// TrainStall and Overlap total the two gap kinds across iterations.
	TrainStall time.Duration `json:"train_stall_ns"`
	Overlap    time.Duration `json:"overlap_ns"`
	// Overlapped and OverlapRatio total the achieved overlap across
	// iterations: checkpoint-plane work hidden under train-busy time,
	// divided by the total headroom (Overlapped + Overlap).
	Overlapped   time.Duration `json:"overlapped_ns"`
	OverlapRatio float64       `json:"overlap_ratio"`
}

// phaseKey orders (track, phase) pairs: by track priority, then by the
// phase's position in the canonical taxonomy, then lexically.
func phaseLess(at, ap, bt, bp string) bool {
	if pa, pb := trackPriority(at), trackPriority(bt); pa != pb {
		return pa < pb
	}
	if at != bt {
		return at < bt
	}
	if ia, ib := phaseIndex(ap), phaseIndex(bp); ia != ib {
		return ia < ib
	}
	return ap < bp
}

func phaseIndex(phase string) int {
	for i, p := range CanonicalPhases() {
		if p == phase {
			return i
		}
	}
	return len(CanonicalPhases())
}

// interval is a half-open [start, end) slice of the timeline.
type interval struct{ start, end time.Duration }

// BuildProfile analyzes a span timeline. Events may come straight from
// Recorder.Events or from a loaded trace file; they are re-sorted into
// the canonical order first, so the result depends only on the spans.
func BuildProfile(events []Event) *Profile {
	evs := append([]Event(nil), events...)
	SortEvents(evs)

	p := &Profile{Events: len(evs)}
	if len(evs) == 0 {
		return p
	}
	p.Start = evs[0].Start
	p.End = evs[0].Start + evs[0].Dur
	seenTrack := map[string]bool{}
	for _, e := range evs {
		if end := e.Start + e.Dur; end > p.End {
			p.End = end
		}
		if e.Start < p.Start {
			p.Start = e.Start
		}
		if !seenTrack[e.Track] {
			seenTrack[e.Track] = true
			p.Tracks = append(p.Tracks, e.Track)
		}
	}
	sort.Slice(p.Tracks, func(i, j int) bool {
		return phaseLess(p.Tracks[i], "", p.Tracks[j], "")
	})

	p.Phases = phaseStats(evs)
	for i := range p.Phases {
		if p.Phases[i].Track == TrackTrain && p.Phases[i].Phase == PhaseIteration {
			step := p.Phases[i]
			p.Step = &step
		}
	}

	windows := iterWindows(evs, p.End)
	if len(windows) == 0 {
		return p
	}
	critTotals := map[string]*PhaseTotal{}
	var critOrder []string
	for wi := range windows {
		w := &windows[wi]
		buildWindow(w, evs)
		p.Gaps = append(p.Gaps, w.gaps...)
		p.TrainStall += w.prof.Stall
		p.Overlap += w.prof.Overlap
		p.Overlapped += w.prof.Overlapped
		p.Iters = append(p.Iters, w.prof)
		for _, seg := range w.prof.Critical {
			k := seg.Track + "\x00" + seg.Phase
			t, ok := critTotals[k]
			if !ok {
				t = &PhaseTotal{Track: seg.Track, Phase: seg.Phase}
				critTotals[k] = t
				critOrder = append(critOrder, k)
			}
			t.Count++
			t.Total += seg.End - seg.Start
		}
	}
	if headroom := p.Overlapped + p.Overlap; headroom > 0 {
		p.OverlapRatio = float64(p.Overlapped) / float64(headroom)
	}
	for _, k := range critOrder {
		p.Critical = append(p.Critical, *critTotals[k])
	}
	sort.Slice(p.Critical, func(i, j int) bool {
		a, b := p.Critical[i], p.Critical[j]
		if (a.Phase == "idle") != (b.Phase == "idle") {
			return b.Phase == "idle" // idle row last
		}
		return phaseLess(a.Track, a.Phase, b.Track, b.Phase)
	})
	return p
}

// phaseStats folds every span into per-(track, phase) distributions. The
// spans are all in memory, so each phase keeps every duration and the
// quantiles are exact nearest-rank over the sorted list.
func phaseStats(evs []Event) []PhaseStats {
	type acc struct {
		stats PhaseStats
		durs  []time.Duration
	}
	byKey := map[string]*acc{}
	var order []string
	for _, e := range evs {
		k := e.Track + "\x00" + e.Name
		a, ok := byKey[k]
		if !ok {
			a = &acc{stats: PhaseStats{Track: e.Track, Phase: e.Name}}
			byKey[k] = a
			order = append(order, k)
		}
		a.stats.Count++
		a.stats.Total += e.Dur
		a.durs = append(a.durs, e.Dur)
	}
	out := make([]PhaseStats, 0, len(order))
	for _, k := range order {
		a := byKey[k]
		s := a.stats
		s.Mean = time.Duration(float64(s.Total) / float64(s.Count))
		slices.Sort(a.durs)
		s.P50 = nearestRank(a.durs, 0.5)
		s.P95 = nearestRank(a.durs, 0.95)
		s.Max = a.durs[len(a.durs)-1]
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return phaseLess(out[i].Track, out[i].Phase, out[j].Track, out[j].Phase)
	})
	return out
}

// nearestRank returns the q-quantile (0 < q < 1) of sorted, non-empty
// durations: the smallest value with at least q of the samples at or
// below it.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

// window is one iteration's analysis scratch state.
type window struct {
	prof IterProfile
	gaps []Gap
}

// iterWindows slices the timeline at iteration-envelope starts. Window i
// spans from envelope i's start to envelope i+1's start; the last window
// ends at the profile end, so trailing persist work stays attributed.
func iterWindows(evs []Event, profileEnd time.Duration) []window {
	var ws []window
	for _, e := range evs {
		if e.Track != TrackTrain || e.Name != PhaseIteration {
			continue
		}
		iter, ok := eventIter(e)
		if !ok {
			iter = int64(len(ws))
		}
		ws = append(ws, window{prof: IterProfile{
			Iter:  iter,
			Start: e.Start,
			Wall:  e.Dur,
		}})
	}
	for i := range ws {
		if i+1 < len(ws) {
			ws[i].prof.End = ws[i+1].prof.Start
		} else {
			ws[i].prof.End = profileEnd
		}
	}
	return ws
}

// eventIter extracts the span's iteration argument. JSON decoding turns
// integers into float64, so both representations are accepted.
func eventIter(e Event) (int64, bool) {
	v, ok := e.Args["iter"]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case float64:
		return int64(n), true
	}
	return 0, false
}

// buildWindow computes one window's phase totals, critical path, and
// gaps from the spans that overlap it.
func buildWindow(w *window, evs []Event) {
	wStart, wEnd := w.prof.Start, w.prof.End
	type clipped struct {
		ev         Event
		start, end time.Duration
	}
	var spans []clipped
	for _, e := range evs {
		if e.Track == TrackTrain && e.Name == PhaseIteration {
			continue
		}
		end := e.Start + e.Dur
		if end <= wStart || e.Start >= wEnd {
			continue
		}
		s, en := e.Start, end
		if s < wStart {
			s = wStart
		}
		if en > wEnd {
			en = wEnd
		}
		spans = append(spans, clipped{ev: e, start: s, end: en})
	}

	// Phase totals: full (unclipped-within-window) durations per key.
	totals := map[string]*PhaseTotal{}
	var order []string
	for _, c := range spans {
		k := c.ev.Track + "\x00" + c.ev.Name
		t, ok := totals[k]
		if !ok {
			t = &PhaseTotal{Track: c.ev.Track, Phase: c.ev.Name}
			totals[k] = t
			order = append(order, k)
		}
		t.Count++
		t.Total += c.end - c.start
	}
	for _, k := range order {
		w.prof.Phases = append(w.prof.Phases, *totals[k])
	}
	sort.Slice(w.prof.Phases, func(i, j int) bool {
		a, b := w.prof.Phases[i], w.prof.Phases[j]
		return phaseLess(a.Track, a.Phase, b.Track, b.Phase)
	})

	// Elementary intervals between every span boundary in the window.
	cuts := []time.Duration{wStart, wEnd}
	for _, c := range spans {
		cuts = append(cuts, c.start, c.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	uniq := cuts[:1]
	for _, c := range cuts[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}

	// Critical path: in each elementary interval the winner is the
	// highest-priority active working span (train > comm > snapshot >
	// checkpoint > persist), then the highest-priority stall span, then
	// idle. Adjacent intervals with the same winner merge.
	var crit []Segment
	appendSeg := func(track, phase string, a, b time.Duration) {
		if b <= a {
			return
		}
		if n := len(crit); n > 0 && crit[n-1].Track == track && crit[n-1].Phase == phase && crit[n-1].End == a {
			crit[n-1].End = b
			return
		}
		crit = append(crit, Segment{Track: track, Phase: phase, Start: a, End: b})
	}
	for i := 0; i+1 < len(uniq); i++ {
		a, b := uniq[i], uniq[i+1]
		var best *clipped
		bestStall := true
		for si := range spans {
			c := &spans[si]
			if c.start > a || c.end < b {
				continue
			}
			stall := IsStall(c.ev.Name)
			if best == nil {
				best, bestStall = c, stall
				continue
			}
			if stall != bestStall {
				if !stall {
					best, bestStall = c, stall
				}
				continue
			}
			if phaseLess(c.ev.Track, c.ev.Name, best.ev.Track, best.ev.Name) {
				best = c
			}
		}
		if best == nil {
			appendSeg("", "idle", a, b)
		} else {
			appendSeg(best.ev.Track, best.ev.Name, a, b)
		}
	}
	w.prof.Critical = crit

	// Busy unions per class for gap detection. Stall spans don't count
	// as busy anywhere.
	var trainBusy, otherBusy, ckptBusy []interval
	for _, c := range spans {
		if IsStall(c.ev.Name) {
			continue
		}
		iv := interval{c.start, c.end}
		switch c.ev.Track {
		case TrackTrain:
			trainBusy = append(trainBusy, iv)
		default:
			otherBusy = append(otherBusy, iv)
		}
		switch c.ev.Track {
		case TrackSnapshot, TrackCheckpoint, TrackPersist:
			ckptBusy = append(ckptBusy, iv)
		}
	}
	trainBusy = mergeIntervals(trainBusy)
	otherBusy = mergeIntervals(otherBusy)
	ckptBusy = mergeIntervals(ckptBusy)
	win := []interval{{wStart, wEnd}}

	busyIn := func(a, b time.Duration, fromTrain bool) []string {
		var names []string
		seen := map[string]bool{}
		for _, c := range spans {
			if IsStall(c.ev.Name) || c.start >= b || c.end <= a {
				continue
			}
			if fromTrain != (c.ev.Track == TrackTrain) {
				continue
			}
			k := c.ev.Track + "/" + c.ev.Name
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
		sort.Strings(names)
		return names
	}

	for _, iv := range intersectIntervals(subtractIntervals(win, trainBusy), otherBusy) {
		w.gaps = append(w.gaps, Gap{
			Kind: GapTrainStall, Iter: w.prof.Iter,
			Start: iv.start, End: iv.end, Dur: iv.end - iv.start,
			Busy: busyIn(iv.start, iv.end, false),
		})
		w.prof.Stall += iv.end - iv.start
	}
	for _, iv := range subtractIntervals(trainBusy, ckptBusy) {
		w.gaps = append(w.gaps, Gap{
			Kind: GapOverlapWindow, Iter: w.prof.Iter,
			Start: iv.start, End: iv.end, Dur: iv.end - iv.start,
			Busy: busyIn(iv.start, iv.end, true),
		})
		w.prof.Overlap += iv.end - iv.start
	}
	// Achieved overlap: checkpoint-plane work that ran under train-busy
	// time. The headroom is all train-busy time, which splits exactly
	// into Overlapped (used) and Overlap (the remaining open window).
	for _, iv := range intersectIntervals(trainBusy, ckptBusy) {
		w.prof.Overlapped += iv.end - iv.start
	}
	if headroom := w.prof.Overlapped + w.prof.Overlap; headroom > 0 {
		w.prof.OverlapRatio = float64(w.prof.Overlapped) / float64(headroom)
	}
}

// mergeIntervals sorts and coalesces overlapping/adjacent intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end < ivs[j].end
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtractIntervals returns a \ b; both inputs must be merged.
func subtractIntervals(a, b []interval) []interval {
	var out []interval
	for _, iv := range a {
		cur := iv
		for _, cut := range b {
			if cut.end <= cur.start || cut.start >= cur.end {
				continue
			}
			if cut.start > cur.start {
				out = append(out, interval{cur.start, cut.start})
			}
			if cut.end < cur.end {
				cur.start = cut.end
			} else {
				cur.start = cur.end
				break
			}
		}
		if cur.end > cur.start {
			out = append(out, cur)
		}
	}
	return out
}

// intersectIntervals returns a ∩ b; both inputs must be merged.
func intersectIntervals(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		s, e := maxDur(a[i].start, b[j].start), minDur(a[i].end, b[j].end)
		if e > s {
			out = append(out, interval{s, e})
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a > b {
		return b
	}
	return a
}
