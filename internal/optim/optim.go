// Package optim implements the optimizers used by the functional training
// layer: Adam (the paper's default) and SGD with momentum.
//
// Two properties matter for checkpointing:
//
//  1. Optimizer state is snapshot/restorable, because a full checkpoint is
//     (parameters, optimizer state) — for Adam that is the 2Ψ moment
//     vectors behind the paper's "full checkpoint = 3Ψ" accounting.
//  2. Steps are deterministic, so replaying the gradients stored in
//     differential checkpoints from a restored full checkpoint reproduces
//     the live model state bit-exactly (paper Finding 1: C^D_t = Adam(G_t)).
//
// A sparse step (compressed gradient applied without materializing the
// dense vector) is provided and is exactly equivalent to decompressing and
// taking a dense step; tests assert the equivalence.
package optim

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// Optimizer updates a flat parameter vector from a gradient of equal length.
type Optimizer interface {
	// Step applies one dense update: params <- params + rule(grad).
	Step(params, grad tensor.Vector) error
	// StepSparse applies one update where the gradient is zero except at
	// idx (values vals). Must be exactly equivalent to a dense Step on the
	// scattered gradient.
	StepSparse(params tensor.Vector, idx []int32, vals tensor.Vector) error
	// StepWith and StepSparseWith are Step and StepSparse with the
	// per-parameter loop sharded over pool's fixed chunk grid. The rules are
	// elementwise, so the result is bit-identical at any worker count; a nil
	// pool is the serial call (Step and StepSparse are exactly that).
	StepWith(pool *parallel.Pool, params, grad tensor.Vector) error
	StepSparseWith(pool *parallel.Pool, params tensor.Vector, idx []int32, vals tensor.Vector) error
	// Snapshot returns a deep copy of the optimizer state.
	Snapshot() State
	// Detach hands the optimizer's state out without copying it: the
	// returned slots are the live buffers, so the optimizer must not be
	// used afterwards. It is the move-out half of Adopt.
	Detach() State
	// Restore replaces the optimizer state from a snapshot.
	Restore(State) error
	// Clone returns an independent copy of the optimizer.
	Clone() Optimizer
	// StepCount returns the number of steps taken.
	StepCount() int64
	// Name identifies the rule ("adam", "sgd").
	Name() string
}

// State is a serializable optimizer snapshot. Slots hold the per-parameter
// auxiliary vectors (Adam moments, SGD momentum); Scalars hold hyperparams
// and the step counter so a restored optimizer is self-contained.
type State struct {
	Name    string
	Step    int64
	Scalars map[string]float64
	Slots   map[string][]float32
}

// Clone returns a deep copy of the state: nothing in it aliases s.
func (s State) Clone() State {
	out := State{Name: s.Name, Step: s.Step, Scalars: maps.Clone(s.Scalars), Slots: make(map[string][]float32, len(s.Slots))}
	for k, v := range s.Slots { //lint:allow determinism a per-key copy; nothing leaves in map order
		out.Slots[k] = slices.Clone(v)
	}
	return out
}

// SlotNames returns the slot keys in sorted order, for deterministic
// iteration over the per-parameter vectors (state assembly and splitting
// must visit slots in a fixed order to stay byte-reproducible).
func (s State) SlotNames() []string {
	names := make([]string, 0, len(s.Slots))
	for k := range s.Slots { //lint:allow determinism keys are sorted below; nothing leaves in map order
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ScalarNames returns the scalar keys in sorted order.
func (s State) ScalarNames() []string {
	names := make([]string, 0, len(s.Scalars))
	for k := range s.Scalars { //lint:allow determinism keys are sorted below; nothing leaves in map order
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SlotBytes returns the total byte size of the per-parameter slots — the
// optimizer's contribution to a full checkpoint (2Ψ·4 bytes for Adam).
func (s State) SlotBytes() int64 {
	var n int64
	for _, v := range s.Slots { //lint:allow determinism an integer sum does not depend on the order of its terms
		n += int64(len(v)) * 4
	}
	return n
}

var errNilState = errors.New("optim: restore from mismatched state")

// AdamConfig holds Adam hyperparameters. Zero values are replaced by the
// customary defaults.
type AdamConfig struct {
	LR    float64 // learning rate, default 1e-3
	Beta1 float64 // default 0.9
	Beta2 float64 // default 0.999
	Eps   float64 // default 1e-8
}

func (c AdamConfig) withDefaults() AdamConfig {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	return c
}

// Adam is the Adam optimizer with bias correction. It maintains first and
// second moment vectors of the same length as the parameters (2Ψ extra
// state, per the paper's Finding 2).
type Adam struct {
	cfg  AdamConfig
	m, v tensor.Vector
	step int64
}

// NewAdam returns an Adam optimizer for n parameters.
func NewAdam(n int, cfg AdamConfig) *Adam {
	return &Adam{cfg: cfg.withDefaults(), m: tensor.New(n), v: tensor.New(n)}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// StepCount implements Optimizer.
func (a *Adam) StepCount() int64 { return a.step }

// Moments exposes read-only views of the first and second moments (used by
// checkpoint encoding).
func (a *Adam) Moments() (m, v tensor.Vector) { return a.m, a.v }

// Step implements Optimizer.
func (a *Adam) Step(params, grad tensor.Vector) error { return a.StepWith(nil, params, grad) }

// StepWith implements Optimizer.
func (a *Adam) StepWith(pool *parallel.Pool, params, grad tensor.Vector) error {
	if len(params) != len(a.m) || len(grad) != len(a.m) {
		return fmt.Errorf("optim: adam step size mismatch: params %d, grad %d, state %d",
			len(params), len(grad), len(a.m))
	}
	a.advance(pool, params, grad)
	return nil
}

// StepSparse implements Optimizer.
func (a *Adam) StepSparse(params tensor.Vector, idx []int32, vals tensor.Vector) error {
	return a.StepSparseWith(nil, params, idx, vals)
}

// StepSparseWith implements Optimizer. All moments decay (the mathematically
// dense behaviour), and gradient values contribute only at idx. Nothing is
// mutated — not the step counter, the moments or the parameters — unless
// every index is in range.
func (a *Adam) StepSparseWith(pool *parallel.Pool, params tensor.Vector, idx []int32, vals tensor.Vector) error {
	if len(params) != len(a.m) {
		return fmt.Errorf("optim: adam sparse step size mismatch: params %d, state %d", len(params), len(a.m))
	}
	if err := checkSparse("adam", idx, vals, len(params)); err != nil {
		return err
	}
	// Scatter the gradient first so the one pass below matches the dense
	// computation order bit for bit.
	dense := densePool.get(len(params))
	scatter(dense, idx, vals)
	a.advance(pool, params, dense)
	densePool.put(dense, idx)
	return nil
}

// advance takes one step with a dense gradient of checked length.
func (a *Adam) advance(pool *parallel.Pool, params, grad tensor.Vector) {
	a.step++
	b1 := float32(a.cfg.Beta1)
	b2 := float32(a.cfg.Beta2)
	k := adamCoef{
		b1: b1, b2: b2, c1: 1 - b1, c2: 1 - b2,
		corr1: float32(1 / (1 - math.Pow(a.cfg.Beta1, float64(a.step)))),
		corr2: float32(1 / (1 - math.Pow(a.cfg.Beta2, float64(a.step)))),
		lr:    float32(a.cfg.LR),
		eps:   float32(a.cfg.Eps),
	}
	if pool.Workers() == 1 {
		adamRange(params, a.m, a.v, grad, k)
		return
	}
	pool.ForEach(len(params), func(_, lo, hi int) {
		adamRange(params[lo:hi], a.m[lo:hi], a.v[lo:hi], grad[lo:hi], k)
	})
}

// adamCoef is one step's coefficients, computed once so that every shard
// of the step uses the same values.
type adamCoef struct{ b1, b2, c1, c2, corr1, corr2, lr, eps float32 }

// adamRange is the Adam rule over one range: the only place it is written,
// so dense and sparse steps, serial or sharded, live or replayed, round
// identically. The four slices cover the same range.
func adamRange(p, m, v, g []float32, k adamCoef) {
	p, m, v = p[:len(g)], m[:len(g)], v[:len(g)]
	for i, gi := range g {
		mi := k.b1*m[i] + k.c1*gi
		vi := k.b2*v[i] + k.c2*gi*gi
		m[i] = mi
		v[i] = vi
		mh := mi * k.corr1
		vh := vi * k.corr2
		p[i] -= k.lr * mh / (sqrt32(vh) + k.eps)
	}
}

// Snapshot implements Optimizer.
func (a *Adam) Snapshot() State { return a.state(a.m.Clone(), a.v.Clone()) }

// Detach implements Optimizer.
func (a *Adam) Detach() State {
	st := a.state(a.m, a.v)
	a.m, a.v = nil, nil
	return st
}

func (a *Adam) state(m, v tensor.Vector) State {
	return State{
		Name: "adam",
		Step: a.step,
		Scalars: map[string]float64{
			"lr": a.cfg.LR, "beta1": a.cfg.Beta1, "beta2": a.cfg.Beta2, "eps": a.cfg.Eps,
		},
		Slots: map[string][]float32{"m": m, "v": v},
	}
}

// Restore implements Optimizer.
func (a *Adam) Restore(s State) error { return a.load(s, len(a.m), false) }

// load replaces the state from s for n parameters, copying the slots into
// the optimizer's own buffers or, with adopt, taking s's slices as those
// buffers.
func (a *Adam) load(s State, n int, adopt bool) error {
	if s.Name != "adam" {
		return fmt.Errorf("optim: restore adam from %q state: %w", s.Name, errNilState)
	}
	m, okM := s.Slots["m"]
	v, okV := s.Slots["v"]
	if !okM || !okV || len(m) != n || len(v) != n {
		return fmt.Errorf("optim: restore adam: slot shape mismatch (m=%d v=%d want %d): %w",
			len(m), len(v), n, errNilState)
	}
	if adopt {
		a.m, a.v = m, v
	} else {
		copy(a.m, m)
		copy(a.v, v)
	}
	a.step = s.Step
	if lr, ok := s.Scalars["lr"]; ok {
		a.cfg.LR = lr
	}
	if b, ok := s.Scalars["beta1"]; ok {
		a.cfg.Beta1 = b
	}
	if b, ok := s.Scalars["beta2"]; ok {
		a.cfg.Beta2 = b
	}
	if e, ok := s.Scalars["eps"]; ok {
		a.cfg.Eps = e
	}
	return nil
}

// Clone implements Optimizer.
func (a *Adam) Clone() Optimizer {
	return &Adam{cfg: a.cfg, m: a.m.Clone(), v: a.v.Clone(), step: a.step}
}

// SGDConfig holds SGD hyperparameters. A zero LR defaults to 0.01.
type SGDConfig struct {
	LR       float64
	Momentum float64
}

func (c SGDConfig) withDefaults() SGDConfig {
	if c.LR == 0 {
		c.LR = 0.01
	}
	return c
}

// SGD is stochastic gradient descent with optional momentum. With zero
// momentum its updates are linear in the gradient, which makes batched
// (accumulated) differential replay bit-exact — the property the parallel
// recovery tests rely on.
type SGD struct {
	cfg  SGDConfig
	buf  tensor.Vector // momentum buffer; nil when momentum == 0
	n    int
	step int64
}

// NewSGD returns an SGD optimizer for n parameters.
func NewSGD(n int, cfg SGDConfig) *SGD {
	s := &SGD{cfg: cfg.withDefaults(), n: n}
	if s.cfg.Momentum != 0 {
		s.buf = tensor.New(n)
	}
	return s
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// StepCount implements Optimizer.
func (s *SGD) StepCount() int64 { return s.step }

// Step implements Optimizer.
func (s *SGD) Step(params, grad tensor.Vector) error { return s.StepWith(nil, params, grad) }

// StepWith implements Optimizer.
func (s *SGD) StepWith(pool *parallel.Pool, params, grad tensor.Vector) error {
	if len(params) != s.n || len(grad) != s.n {
		return fmt.Errorf("optim: sgd step size mismatch: params %d, grad %d, want %d", len(params), len(grad), s.n)
	}
	s.advance(pool, params, grad)
	return nil
}

// StepSparse implements Optimizer.
func (s *SGD) StepSparse(params tensor.Vector, idx []int32, vals tensor.Vector) error {
	return s.StepSparseWith(nil, params, idx, vals)
}

// StepSparseWith implements Optimizer. With zero momentum only the indexed
// entries change; with momentum all entries decay like the dense step.
func (s *SGD) StepSparseWith(pool *parallel.Pool, params tensor.Vector, idx []int32, vals tensor.Vector) error {
	if len(params) != s.n {
		return fmt.Errorf("optim: sgd sparse step size mismatch: params %d, want %d", len(params), s.n)
	}
	if err := checkSparse("sgd", idx, vals, s.n); err != nil {
		return err
	}
	dense := densePool.get(len(params))
	scatter(dense, idx, vals)
	if s.buf != nil {
		s.advance(pool, params, dense)
	} else {
		// Pure SGD: zero gradient entries are no-ops, so update only idx.
		// Duplicate indices accumulated in the scatter; a second visit
		// finds the entry already consumed.
		s.step++
		lr := float32(s.cfg.LR)
		for _, j := range idx {
			if g := dense[j]; g != 0 {
				params[j] -= lr * g
				dense[j] = 0
			}
		}
	}
	densePool.put(dense, idx)
	return nil
}

// advance takes one step with a dense gradient of checked length.
func (s *SGD) advance(pool *parallel.Pool, params, grad tensor.Vector) {
	s.step++
	lr, mu := float32(s.cfg.LR), float32(s.cfg.Momentum)
	if pool.Workers() == 1 {
		sgdRange(params, s.buf, grad, lr, mu)
		return
	}
	pool.ForEach(len(params), func(_, lo, hi int) {
		var buf []float32
		if s.buf != nil {
			buf = s.buf[lo:hi]
		}
		sgdRange(params[lo:hi], buf, grad[lo:hi], lr, mu)
	})
}

// sgdRange is the SGD rule over one range, the momentum counterpart of
// adamRange; buf is nil without momentum.
func sgdRange(p, buf, g []float32, lr, mu float32) {
	p = p[:len(g)]
	if buf == nil {
		for i, gi := range g {
			p[i] -= lr * gi
		}
		return
	}
	buf = buf[:len(g)]
	for i, gi := range g {
		b := mu*buf[i] + gi
		buf[i] = b
		p[i] -= lr * b
	}
}

// Snapshot implements Optimizer.
func (s *SGD) Snapshot() State { return s.state(s.buf.Clone()) }

// Detach implements Optimizer.
func (s *SGD) Detach() State {
	st := s.state(s.buf)
	s.buf = nil
	return st
}

func (s *SGD) state(buf tensor.Vector) State {
	st := State{
		Name:    "sgd",
		Step:    s.step,
		Scalars: map[string]float64{"lr": s.cfg.LR, "momentum": s.cfg.Momentum},
		Slots:   map[string][]float32{},
	}
	if s.buf != nil {
		st.Slots["momentum"] = buf
	}
	return st
}

// Restore implements Optimizer.
func (s *SGD) Restore(st State) error { return s.load(st, false) }

// load is Adam.load for SGD.
func (s *SGD) load(st State, adopt bool) error {
	if st.Name != "sgd" {
		return fmt.Errorf("optim: restore sgd from %q state: %w", st.Name, errNilState)
	}
	if buf, ok := st.Slots["momentum"]; ok {
		if len(buf) != s.n {
			return fmt.Errorf("optim: restore sgd: momentum length %d, want %d: %w", len(buf), s.n, errNilState)
		}
		if adopt {
			s.buf = buf
		} else {
			if s.buf == nil {
				s.buf = tensor.New(s.n)
			}
			copy(s.buf, buf)
		}
	} else if s.cfg.Momentum != 0 {
		return fmt.Errorf("optim: restore sgd: missing momentum slot: %w", errNilState)
	}
	s.step = st.Step
	if lr, ok := st.Scalars["lr"]; ok {
		s.cfg.LR = lr
	}
	if mu, ok := st.Scalars["momentum"]; ok {
		s.cfg.Momentum = mu
	}
	return nil
}

// Clone implements Optimizer.
func (s *SGD) Clone() Optimizer {
	out := &SGD{cfg: s.cfg, n: s.n, step: s.step}
	if s.buf != nil {
		out.buf = s.buf.Clone()
	}
	return out
}

// New constructs an optimizer by rule name with default hyperparameters.
func New(name string, n int) (Optimizer, error) {
	switch name {
	case "adam":
		return NewAdam(n, AdamConfig{}), nil
	case "sgd":
		return NewSGD(n, SGDConfig{}), nil
	default:
		return nil, fmt.Errorf("optim: unknown optimizer %q", name)
	}
}

// FromState constructs an optimizer matching a snapshot for n parameters
// and restores it, so recovery can rebuild the exact optimizer from a full
// checkpoint. The optimizer copies st's slots; Adopt moves them.
func FromState(st State, n int) (Optimizer, error) { return fromState(st, n, false) }

// Adopt is FromState without the copy: the optimizer takes st's slot
// slices as its own buffers and steps them in place, so the caller must
// own st and stop using it. Detach moves the buffers back out.
func Adopt(st State, n int) (Optimizer, error) { return fromState(st, n, true) }

func fromState(st State, n int, adopt bool) (Optimizer, error) {
	switch st.Name {
	case "adam":
		a := &Adam{cfg: AdamConfig{}.withDefaults()}
		if !adopt {
			a.m, a.v = tensor.New(n), tensor.New(n)
		}
		if err := a.load(st, n, adopt); err != nil {
			return nil, err
		}
		return a, nil
	case "sgd":
		// load allocates the momentum buffer when it has to copy into one.
		s := &SGD{cfg: SGDConfig{Momentum: st.Scalars["momentum"]}.withDefaults(), n: n}
		if err := s.load(st, adopt); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("optim: unknown optimizer state %q", st.Name)
	}
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// checkSparse validates a sparse gradient against n parameters. Sparse
// steps call it before they touch any state, so a rejected step leaves the
// optimizer exactly as it was.
func checkSparse(rule string, idx []int32, vals tensor.Vector, n int) error {
	if len(idx) != len(vals) {
		return fmt.Errorf("optim: %s sparse step: idx %d, vals %d", rule, len(idx), len(vals))
	}
	for _, j := range idx {
		if j < 0 || int(j) >= n {
			return fmt.Errorf("optim: %s sparse step index %d out of range [0,%d)", rule, j, n)
		}
	}
	return nil
}

// scatter adds a checked sparse gradient into an all-zero dense buffer.
func scatter(dense tensor.Vector, idx []int32, vals tensor.Vector) {
	for i, j := range idx {
		dense[j] += vals[i]
	}
}

// densePool recycles the dense scratch vectors the sparse steps scatter
// into, so hot loops do not allocate per iteration. Optimizers on different
// workers run concurrently, so the pool is mutex-guarded.
//
// Pooled buffers are all-zero by invariant, over their whole capacity: get
// hands one out as it is, and put clears exactly the entries the step
// touched. A sparse step therefore costs O(len(idx)) of scratch upkeep, not
// a memset of the dense length.
var densePool = &scratchPool{}

type scratchPool struct {
	mu   sync.Mutex
	bufs [8][]float32 // the free buffers are bufs[:n]
	n    int
}

func (p *scratchPool) get(n int) tensor.Vector {
	p.mu.Lock()
	for i := p.n - 1; i >= 0; i-- {
		if cap(p.bufs[i]) >= n {
			b := p.bufs[i][:n]
			p.n--
			p.bufs[i], p.bufs[p.n] = p.bufs[p.n], nil
			p.mu.Unlock()
			return b
		}
	}
	p.mu.Unlock()
	return tensor.New(n)
}

// put returns b to the pool after zeroing the entries at touched, the only
// ones its user wrote.
func (p *scratchPool) put(b tensor.Vector, touched []int32) {
	for _, j := range touched {
		b[j] = 0
	}
	p.mu.Lock()
	if p.n < len(p.bufs) {
		p.bufs[p.n] = b
		p.n++
	}
	p.mu.Unlock()
}
