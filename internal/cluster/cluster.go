// Package cluster is the performance simulator: per-strategy checkpointing
// cost models over the timemodel hardware constants, plus a deterministic
// failure/recovery timeline whose persist device is a sim.Resource. Every
// cluster-scale experiment of the paper (training time, wasted time, max
// frequency, recovery time, scalability) is computed here.
//
// Cost-model shape. Each strategy's checkpointing cost per event splits
// into a blocking part (training stalls: compression on the critical path,
// snapshot serialization, unoverlapped traffic) and an async part that only
// stalls when the device cannot sustain the write rate (backlog). The
// per-strategy formulas and their paper sections:
//
//	CheckFreq  (§2.2): snapshot = serialize(S) + D2H(S), pipelined against
//	           at most one iteration (the WAR dependency); persist(S) async
//	           on the SSD.
//	Gemini     (§2.2): checkpoint traffic S over the network, interleaved
//	           into idle slots covering ~0.7 of the interval.
//	Naïve DC   (§3.1): compress(3Ψ state) always blocks (data dependency,
//	           §3.4); D2H+write of the differential overlaps only with the
//	           k−1 non-checkpointing iterations.
//	LowDiff    (§4): no compression cost (reuse); fixed ~2.4% queue/
//	           decompress overhead; D2H of the small compressed gradient;
//	           SSD backlog only if writes cannot keep up.
//	LowDiff+   (§5): per-iteration raw-gradient D2H, half hidden by
//	           layer-wise overlap, plus ~4% fixed; persistence is sharded
//	           across servers from the CPU replicas.
package cluster

import (
	"fmt"
	"math"

	"lowdiff/internal/model"
	"lowdiff/internal/timemodel"
)

// Strategy identifies a checkpointing system under simulation.
type Strategy string

// The simulated strategies.
const (
	WOCkpt       Strategy = "wockpt"    // no checkpointing (upper bound)
	TorchSave    Strategy = "torchsave" // synchronous epoch-style full checkpoints
	CheckFreq    Strategy = "checkfreq" // pipelined snapshot + async persist
	Gemini       Strategy = "gemini"    // checkpoint to (remote) CPU memory
	NaiveDC      Strategy = "naivedc"   // Check-N-Run style differential
	LowDiff      Strategy = "lowdiff"   // the paper's system
	LowDiffPlusS Strategy = "lowdiff+s" // LowDiff+ in-memory checkpointing
	LowDiffPlusP Strategy = "lowdiff+p" // LowDiff+ persisted checkpoints
	// LowDiffPeer retains each iteration's compressed differential in the
	// peers' memory (a bounded window per worker) instead of writing it to
	// the store; only periodic fulls are persisted (DESIGN.md §9).
	LowDiffPeer Strategy = "lowdiff-peer"
)

// Strategies lists all simulated strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{WOCkpt, TorchSave, CheckFreq, Gemini, NaiveDC, LowDiff, LowDiffPlusS, LowDiffPlusP, LowDiffPeer}
}

// Calibrated overlap fractions (see package comment and timemodel docs).
const (
	// CheckFreq's snapshot must finish before the next model update (the
	// WAR dependency), so it can hide only inside one iteration's
	// forward+backward window.
	checkFreqHideIters = 0.9
	geminiHideFrac     = 0.7    // of interval hidden by traffic interleaving
	geminiFixedFrac    = 0.08   // steady interference with training traffic
	naiveDCHideFrac    = 0.9    // of the k-1 idle iterations usable for DC I/O
	lowDiffFixedFrac   = 0.024  // queue hand-off + decompress overhead
	lowDiffD2HExposed  = 0.5    // compressed-gradient D2H share not hidden
	plusFixedFrac      = 0.04   // layer-wise snapshot bookkeeping
	plusD2HExposed     = 0.5    // fraction of raw-gradient D2H not hidden
	diffWriteLatency   = 0.0095 // fixed seconds per differential store write
	// Retaining the already-received compressed gradient in the peer window
	// is a ring insert plus a CRC — cheaper than LowDiff's queue hand-off
	// and decompress because nothing leaves the worker.
	peerRetainFrac = 0.008
	gpusPerServer  = 4 // LowDiff+ shards persistence per server
	// CheckFreq's profiler settles on a 10-iteration interval (paper
	// Exp. 4 observes it "consistently maintains an interval of 10").
	checkFreqProfilerInterval = 10
)

// Workload describes one simulated training job.
type Workload struct {
	Spec    model.Spec
	HW      timemodel.Hardware
	Workers int     // number of GPUs
	Rho     float64 // sparsification ratio (compressed strategies)
	// PipelineParallel marks the VGG16-PP configuration of Exp. 1: shorter
	// per-stage iterations and poorly amortized per-stage differential
	// compression for Naïve DC.
	PipelineParallel bool
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if err := w.Spec.Validate(); err != nil {
		return err
	}
	if err := w.HW.Validate(); err != nil {
		return err
	}
	if w.Workers < 1 {
		return fmt.Errorf("cluster: %d workers", w.Workers)
	}
	if w.Rho < 0 || w.Rho > 1 {
		return fmt.Errorf("cluster: rho %v out of [0,1]", w.Rho)
	}
	return nil
}

// IterTime returns the no-checkpoint iteration time.
func (w Workload) IterTime() float64 {
	t := timemodel.IterTime(w.Spec, w.HW)
	if w.PipelineParallel {
		// Pipeline parallelism shortens the per-iteration critical path
		// (stages overlap) at the configured depth.
		t *= 0.75
	}
	return t
}

// Plan is a checkpointing configuration for a strategy.
type Plan struct {
	Strategy Strategy
	// Interval is the checkpoint interval in iterations: differential
	// interval for DC strategies (NaiveDC, LowDiff), full-checkpoint
	// interval for full-only strategies (TorchSave, CheckFreq, Gemini),
	// in-memory interval for LowDiffPlusS and persistence interval for
	// LowDiffPlusP. Default 1.
	Interval int
	// FullEvery is LowDiff's full-checkpoint interval (default 50).
	FullEvery int
	// BatchSize is LowDiff's batched-write size (default 1).
	BatchSize int
	// Window is LowDiffPeer's per-peer differential ring depth W
	// (default FullEvery: the window always reaches the newest full).
	Window int
}

func (p Plan) withDefaults() Plan {
	if p.Interval == 0 {
		p.Interval = 1
	}
	if p.FullEvery == 0 {
		p.FullEvery = 50
	}
	if p.BatchSize == 0 {
		p.BatchSize = 1
	}
	if p.Window == 0 {
		p.Window = p.FullEvery
	}
	return p
}

// Validate checks the plan.
func (p Plan) Validate() error {
	p = p.withDefaults()
	switch p.Strategy {
	case WOCkpt, TorchSave, CheckFreq, Gemini, NaiveDC, LowDiff, LowDiffPlusS, LowDiffPlusP, LowDiffPeer:
	default:
		return fmt.Errorf("cluster: unknown strategy %q", p.Strategy)
	}
	if p.Interval < 1 || p.FullEvery < 1 || p.BatchSize < 1 || p.Window < 1 {
		return fmt.Errorf("cluster: plan intervals must be >= 1: %+v", p)
	}
	return nil
}

// Overhead is the per-iteration checkpointing cost in seconds, split the
// way the paper's wasted-time metric needs: Blocking and Backlog are "GPU
// time for checkpointing" (stalls), while Contention is bus interference
// that slows training but is not checkpointing GPU time (overlapped PCIe /
// network traffic). All three extend the effective iteration time; only
// the first two count as steady-state wasted time.
type Overhead struct {
	Blocking   float64 // training stalls on the critical path
	Backlog    float64 // stalls waiting for an oversubscribed device
	Contention float64 // overlapped-transfer interference
}

// Total returns the full per-iteration overhead.
func (o Overhead) Total() float64 { return o.Blocking + o.Backlog + o.Contention }

// Wasted returns the per-iteration steady-state wasted time (the paper's
// "GPU time for checkpointing").
func (o Overhead) Wasted() float64 { return o.Blocking + o.Backlog }

// PerIterOverhead computes the steady-state per-iteration checkpointing
// overhead for the workload under the plan.
func PerIterOverhead(w Workload, p Plan) (Overhead, error) {
	if err := w.Validate(); err != nil {
		return Overhead{}, err
	}
	if err := p.Validate(); err != nil {
		return Overhead{}, err
	}
	p = p.withDefaults()
	tIter := w.IterTime()
	k := float64(p.Interval)
	h := w.HW
	S := timemodel.FullCheckpointBytes(w.Spec)

	switch p.Strategy {
	case WOCkpt:
		return Overhead{}, nil

	case TorchSave:
		// Fully synchronous: serialize + D2H + write, all blocking.
		block := h.SerializeTime(S) + h.D2HTime(S) + h.SSDWriteTime(S)
		return Overhead{Blocking: block / k}, nil

	case CheckFreq:
		snap := h.SerializeTime(S) + h.D2HTime(S)
		block := math.Max(0, snap-checkFreqHideIters*tIter)
		backlog := math.Max(0, h.SSDWriteTime(S)-k*tIter)
		return Overhead{Blocking: block / k, Backlog: backlog / k}, nil

	case Gemini:
		// The fixed interference term stalls training communication, so it
		// counts as checkpointing GPU time (blocking), unlike the
		// copy-engine contention of the LowDiff paths.
		traffic := h.NetTime(S)
		block := geminiFixedFrac*tIter + math.Max(0, traffic-geminiHideFrac*k*tIter)/k
		return Overhead{Blocking: block}, nil

	case NaiveDC:
		// Compression of the 3Ψ differential always blocks (§3.4 data
		// dependency); under pipeline parallelism it is per-stage and
		// poorly amortized.
		compress := h.CompressTime(S)
		if w.PipelineParallel {
			compress *= 4
		}
		dc := timemodel.NaiveDCBytes(w.Spec, w.Rho)
		io := h.D2HTime(dc) + h.SSDWriteTime(dc)
		window := naiveDCHideFrac * (k - 1) * tIter
		block := compress + math.Max(0, io-window)
		return Overhead{Blocking: block / k}, nil

	case LowDiff:
		gc := timemodel.CompressedGradBytes(w.Spec, w.Rho, w.Workers)
		block := lowDiffFixedFrac * tIter
		// The compressed-gradient offload runs on the copy engine and is
		// about half hidden behind compute: bus contention, not a stall.
		contention := lowDiffD2HExposed * h.D2HTime(gc) / k
		// Full-checkpoint snapshot every FullEvery iterations.
		f := float64(p.FullEvery)
		block += math.Max(0, h.D2HTime(S)-checkFreqHideIters*tIter) / f
		// SSD sustainability over a full-checkpoint window: the full
		// checkpoint plus F/k differential batches.
		writes := h.SSDWriteTime(S) + (f/k)*h.SSDWriteTime(gc)
		backlog := math.Max(0, writes-f*tIter) / f
		return Overhead{Blocking: block, Backlog: backlog, Contention: contention}, nil

	case LowDiffPeer:
		// Differentials never leave the workers: retention is a ring
		// insert plus a CRC over the compressed gradient the all-gather
		// already delivered. Only the periodic full hits the SSD.
		f := float64(p.FullEvery)
		block := peerRetainFrac * tIter
		block += math.Max(0, h.D2HTime(S)-checkFreqHideIters*tIter) / f
		backlog := math.Max(0, h.SSDWriteTime(S)-f*tIter) / f
		return Overhead{Blocking: block, Backlog: backlog}, nil

	case LowDiffPlusS:
		// Raw-gradient offload every iteration, half hidden by layer-wise
		// pipelining (bus contention); the CPU-side replica update costs a
		// small fixed stall for bookkeeping.
		d2h := h.D2HTime(timemodel.ParamBytes(w.Spec))
		return Overhead{
			Blocking:   plusFixedFrac * tIter,
			Contention: plusD2HExposed * d2h,
		}, nil

	case LowDiffPlusP:
		// The in-memory path's cost, plus sharded persistence from the
		// CPU replicas (each server writes S/nShards every k iterations).
		d2h := h.D2HTime(timemodel.ParamBytes(w.Spec))
		shards := float64(maxInt(1, w.Workers/gpusPerServer))
		backlog := math.Max(0, h.SSDWriteTime(S/shards)-k*tIter) / k
		return Overhead{
			Blocking:   plusFixedFrac * tIter,
			Backlog:    backlog,
			Contention: plusD2HExposed * d2h,
		}, nil

	default:
		return Overhead{}, fmt.Errorf("cluster: unknown strategy %q", p.Strategy)
	}
}

// TrainingTime returns the simulated wall-clock time to run iters
// iterations under the plan, with no failures.
func TrainingTime(w Workload, p Plan, iters int) (float64, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("cluster: %d iterations", iters)
	}
	ov, err := PerIterOverhead(w, p)
	if err != nil {
		return 0, err
	}
	return float64(iters) * (w.IterTime() + ov.Total()), nil
}

// MaxFrequency returns the smallest checkpoint interval (in iterations,
// 1 = per-iteration) whose *marginal* checkpointing overhead stays within
// bound (fraction of training time, e.g. 0.035), searching up to maxK.
// LowDiff+'s in-memory checkpointing happens every iteration by design
// (the replica update runs on the CPU), so LowDiffPlusS always returns 1;
// CheckFreq's profiler never goes below its designed interval of 10.
func MaxFrequency(w Workload, s Strategy, bound float64, maxK int) (int, error) {
	if bound <= 0 {
		return 0, fmt.Errorf("cluster: bound %v must be positive", bound)
	}
	if maxK < 1 {
		maxK = 1000
	}
	if s == WOCkpt {
		return 1, nil
	}
	if s == LowDiffPlusS || s == LowDiffPeer {
		// Peer retention happens every iteration by design: the window
		// absorbs each differential with no frequency-dependent stall.
		return 1, nil
	}
	if s == CheckFreq {
		// CheckFreq's profiler does not search below its designed
		// interval; the paper observes it pinned at 10.
		return checkFreqProfilerInterval, nil
	}
	tIter := w.IterTime()
	for k := 1; k <= maxK; k++ {
		ov, err := PerIterOverhead(w, Plan{Strategy: s, Interval: k})
		if err != nil {
			return 0, err
		}
		// Contention and fixed per-strategy overheads exist at any
		// frequency; the frequency-dependent stall is what the bound
		// constrains.
		marginal := ov.Blocking + ov.Backlog
		switch s {
		case LowDiff:
			marginal -= lowDiffFixedFrac * tIter
		case LowDiffPlusP:
			marginal -= plusFixedFrac * tIter
		case Gemini:
			marginal -= geminiFixedFrac * tIter
		}
		if marginal <= bound*tIter {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: %s cannot meet %.1f%% bound within %d iterations", s, bound*100, maxK)
}

// AvgDiffWriteTime returns the average per-differential checkpointing time
// in the checkpointer (async path) for LowDiff with the given batch size:
// the SSD transfer plus the fixed write latency amortized over the batch
// (Exp. 6a).
func AvgDiffWriteTime(w Workload, batch int) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if batch < 1 {
		return 0, fmt.Errorf("cluster: batch %d must be >= 1", batch)
	}
	gc := timemodel.CompressedGradBytes(w.Spec, w.Rho, w.Workers)
	return w.HW.SSDWriteTime(gc) + diffWriteLatency/float64(batch), nil
}

// GPUMemOverheadFrac returns the fractional extra GPU memory retained by
// pending differential checkpoints when batching is (not) offloaded to the
// CPU (Exp. 6b): without offloading, up to queueDepth compressed gradients
// wait in GPU memory; with offloading they move to host memory immediately.
func GPUMemOverheadFrac(w Workload, batch int, offloaded bool) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if batch < 1 {
		return 0, fmt.Errorf("cluster: batch %d must be >= 1", batch)
	}
	if offloaded {
		return 0, nil
	}
	gc := timemodel.CompressedGradBytes(w.Spec, w.Rho, w.Workers)
	// Training working set: parameters + gradients + Adam moments +
	// activations (~2x params for these workloads).
	working := 6 * timemodel.ParamBytes(w.Spec)
	return float64(batch) * gc / working, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
