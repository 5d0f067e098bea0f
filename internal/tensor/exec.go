package tensor

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Executor runs a model (or any contiguous segment of it) on tensors,
// including partitioned execution on row tiles. Weights are derived lazily
// and deterministically from the seed, so two Executors with the same model
// and seed — in the same or different processes — compute identical results.
// An Executor is safe for concurrent use.
//
// Kernels parallelise over the shared pool (see pool.go) up to the
// executor's configured parallelism; results are bit-identical at every
// worker count because chunking never changes per-element accumulation
// order. Intermediate layer tensors cycle through the arena (see arena.go),
// so steady-state inference performs no per-layer allocations.
type Executor struct {
	m    *nn.Model
	seed int64
	calc *partition.Calc
	par  int

	// refKernels routes conv/fc layers through the pre-blocking reference
	// loops; used by benchmarks and A/B property tests.
	refKernels bool

	// quant marks the executor as serving the int8 path: RunQ/RunSegmentQ
	// are the entry points and activation scales are calibrated on first
	// use (see quant_exec.go). The float path stays fully usable either
	// way — calibration itself runs it.
	quant bool

	// Calibrated activation scales, one per layer boundary; derived once
	// per executor under scOnce (see QuantScales).
	scOnce sync.Once
	scales []float32
	scErr  error

	// stats attributes kernel wall time by layer kind (see KindSeconds).
	stats kindStats

	// The weight cache takes a read lock on the hot path and serialises
	// only the creation of a key's entry, never weight generation itself:
	// each entry generates its weights under its own sync.Once, so two
	// workers warming different layers proceed concurrently, and after
	// warm-up concurrent stage workers never contend.
	mu  sync.RWMutex
	wts map[weightKey]*weightEntry
}

// weightKey names one layer's weights in one precision. layer is the
// model index, with "/path/layer" suffixes inside blocks; a layer is
// either a conv or an fc, so the key also fixes the weight type.
type weightKey struct {
	layer string
	quant bool
}

type weightEntry struct {
	once sync.Once
	w    any // *convWeights, *fcWeights, *qconvWeights or *qfcWeights
}

// kindStats accumulates kernel wall-clock seconds per layer kind. Counters
// are float64 bit patterns updated by CAS so concurrent segment runs on one
// executor attribute time without a lock on the hot path.
type kindStats struct {
	conv      atomic.Uint64 // spatial convolutions (kernel > 1x1, grouped-but-not-depthwise)
	pointwise atomic.Uint64 // 1x1 stride-1 unpadded convolutions
	depthwise atomic.Uint64 // groups == channels convolutions
	pool      atomic.Uint64 // max/avg/global-average pools
	fc        atomic.Uint64 // fully connected layers
}

func (s *kindStats) add(c *atomic.Uint64, d time.Duration) {
	sec := d.Seconds()
	for {
		old := c.Load()
		if c.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sec)) {
			return
		}
	}
}

// convCounter picks the attribution bucket for a convolution's shape,
// mirroring the kernel dispatch in convForward.
func (s *kindStats) convCounter(l *nn.Layer, inC int) *atomic.Uint64 {
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	switch {
	case groups > 1 && inC/groups == 1 && l.OutC/groups == 1:
		return &s.depthwise
	case groups == 1 && l.KH == 1 && l.KW == 1 && l.SH == 1 && l.SW == 1 && l.PH == 0 && l.PW == 0:
		return &s.pointwise
	default:
		return &s.conv
	}
}

// KindSeconds returns cumulative kernel wall-clock seconds since the
// executor was created, keyed by layer kind: conv, pointwise, depthwise,
// pool (including global average pool), and fc. Block combine overhead and
// tensor stitching are not attributed.
func (e *Executor) KindSeconds() map[string]float64 {
	f := func(c *atomic.Uint64) float64 { return math.Float64frombits(c.Load()) }
	return map[string]float64{
		"conv":      f(&e.stats.conv),
		"pointwise": f(&e.stats.pointwise),
		"depthwise": f(&e.stats.depthwise),
		"pool":      f(&e.stats.pool),
		"fc":        f(&e.stats.fc),
	}
}

// ExecutorOption configures an Executor.
type ExecutorOption func(*Executor)

// WithParallelism caps the number of pool workers a kernel may use. n <= 0
// restores the default (GOMAXPROCS); 1 is fully serial execution. Results
// are bit-identical regardless of n.
func WithParallelism(n int) ExecutorOption {
	return func(e *Executor) {
		if n <= 0 {
			n = defaultParallelism()
		}
		e.par = n
	}
}

// WithReferenceKernels makes the executor run convolutions and fully
// connected layers through the pre-blocking reference loops instead of the
// cache-blocked kernels. Results are bit-identical either way; the option
// exists so benchmarks and property tests can A/B the two engines through
// the full execution stack.
func WithReferenceKernels() ExecutorOption {
	return func(e *Executor) { e.refKernels = true }
}

// WithQuantized marks the executor for int8 inference: callers drive it
// through RunQ/RunSegmentQ and activation scales are calibrated lazily from
// the deterministic calibration input. The option is a mode marker, not a
// restriction — the float32 path remains available and bit-identical.
func WithQuantized() ExecutorOption {
	return func(e *Executor) { e.quant = true }
}

// NewExecutor builds an executor for the model with the given weight seed.
func NewExecutor(m *nn.Model, seed int64, opts ...ExecutorOption) (*Executor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{
		m:    m,
		seed: seed,
		calc: partition.NewCalc(m),
		par:  defaultParallelism(),
		wts:  make(map[weightKey]*weightEntry),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Model returns the executor's model.
func (e *Executor) Model() *nn.Model { return e.m }

// Seed returns the weight seed.
func (e *Executor) Seed() int64 { return e.seed }

// Parallelism returns the kernel worker-count cap.
func (e *Executor) Parallelism() int { return e.par }

// InputRange returns the input rows segment [from, to) needs to produce the
// given output rows — what a stage leader must send a worker.
func (e *Executor) InputRange(from, to int, out partition.Range) partition.Range {
	return e.calc.InputRange(from, to, out)
}

// RegionFLOPs returns the MACs of producing the given output rows of
// segment [from, to), used for capacity emulation and accounting. The count
// models the device's aggregate arithmetic and is independent of how many
// pool workers execute the kernels.
func (e *Executor) RegionFLOPs(from, to int, out partition.Range) int64 {
	return e.calc.SegmentRegionFLOPs(from, to, out)
}

// RectFLOPs is the grid-mode counterpart of RegionFLOPs.
func (e *Executor) RectFLOPs(from, to int, out partition.Rect) int64 {
	return e.calc.SegmentRectFLOPs(from, to, out)
}

// Run executes the whole model on a full input tensor. Models whose
// geometry drops trailing rows (odd extents into stride-2 layers) never
// read them; Run trims the unused border before delegating to RunSegment.
// Ownership: Run never recycles the caller's tensor. When trimming is
// needed, SliceRows copies the kept rows into a fresh executor-owned
// arena tensor (it is a copy, not a view — see Tensor.SliceRows), and only
// that copy is recycled. The caller's buffer, arena-backed or not, stays
// live and untouched after Run returns.
func (e *Executor) Run(in Tensor) (Tensor, error) {
	run, trimmed := e.readRows(in)
	out, err := e.RunSegment(0, e.m.NumLayers(), run, partition.Full(e.m.Output().H))
	if trimmed {
		Recycle(run)
	}
	return out, err
}

// readRows returns the rows of a whole-model input the model reads: in
// itself, or (trimmed) an arena copy of its leading rows when the geometry
// drops trailing ones.
func (e *Executor) readRows(in Tensor) (run Tensor, trimmed bool) {
	need := e.calc.InputRange(0, e.m.NumLayers(), partition.Full(e.m.Output().H))
	if in.Valid() && in.C == e.m.Input.C && in.H == e.m.Input.H && in.W == e.m.Input.W && need.Len() < in.H {
		return in.SliceRows(need.Lo, need.Hi), true
	}
	return in, false
}

// RunSegment executes layers [from, to) producing output rows out of the
// segment's final layer. in must hold exactly the input rows
// InputRange(from, to, out) of the feature map at boundary from, at its
// full width (for a full run, the whole input). The returned tensor is
// arena-backed; callers done with it may Recycle it to keep the hot path
// allocation-free.
func (e *Executor) RunSegment(from, to int, in Tensor, out partition.Range) (Tensor, error) {
	res, err := e.runSegment(from, to, tile{f: in}, partition.Rect{Rows: out}, true)
	return res.f, err
}

// RunSegmentRect executes layers [from, to) producing the output rectangle
// out of the segment's final layer. in must hold exactly the input region
// the segment needs (SegmentRects(from, to, out)[0] of the partition Calc).
// FullyConnected / GlobalAvgPool layers are not grid-partitionable and are
// rejected inside rect segments unless the tile is the whole map. The
// returned tensor is arena-backed; callers done with it may Recycle it.
func (e *Executor) RunSegmentRect(from, to int, in Tensor, out partition.Rect) (Tensor, error) {
	res, err := e.runSegment(from, to, tile{f: in}, out, false)
	return res.f, err
}

// weights returns (generating with gen on first use) the cached weights
// for k.
func (e *Executor) weights(k weightKey, gen func() any) any {
	e.mu.RLock()
	ent, ok := e.wts[k]
	e.mu.RUnlock()
	if !ok {
		e.mu.Lock()
		if ent, ok = e.wts[k]; !ok {
			ent = &weightEntry{}
			e.wts[k] = ent
		}
		e.mu.Unlock()
	}
	ent.once.Do(func() { ent.w = gen() })
	return ent.w
}

// convW returns the convolution weights for key.
func (e *Executor) convW(key string, l *nn.Layer, inC int) *convWeights {
	return e.weights(weightKey{layer: key}, func() any { return genConv(e.seed, key, l, inC) }).(*convWeights)
}

// fcW returns the fully connected weights for key.
func (e *Executor) fcW(key string, l *nn.Layer, inElems int) *fcWeights {
	return e.weights(weightKey{layer: key}, func() any { return genFC(e.seed, key, l, inElems) }).(*fcWeights)
}
