package runtime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/telemetry"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// StageSpan records one task's occupancy of one pipeline stage.
type StageSpan struct {
	// From, To identify the stage's model segment.
	From, To int
	// Start, End bound the stage's work on this task (split through
	// stitch), including time spent waiting on the stage's workers.
	Start, End time.Time
}

// TaskResult is one completed inference.
type TaskResult struct {
	ID     int64
	Output tensor.Tensor
	Err    error
	// Submitted and Done bound the task's wall-clock traversal.
	Submitted, Done time.Time
	// Spans is the per-stage timeline; overlapping spans across different
	// tasks are the pipeline working as intended.
	Spans []StageSpan
}

// flight is a task moving through the stage drivers. Its feature map m is a
// tensor.Tensor in float mode and a tensor.QTensor in quantized mode (the
// input is quantized once at Submit and stays int8 across every stage
// boundary, so each hop moves a quarter of the float bytes).
type flight struct {
	id int64
	m  tile
	// owned marks the map as pipeline-allocated (a stitched or quantized
	// tensor), safe to recycle when the next stage replaces it. The user's
	// submitted input is never recycled.
	owned     bool
	err       error
	submitted time.Time
	spans     []StageSpan
}

// stageDriver realizes the per-stage workflow of the paper's Fig. 6: take a
// feature map from the input queue, split it into the plan's strips,
// distribute the tiles to the stage workers, gather and stitch the results,
// and hand the stitched map to the next stage.
//
// With window > 1 the driver pipelines within the stage too: tiles for task
// N+1 are sliced, serialized and sent while the workers still compute task
// N (whose strips are gathered concurrently), so coordinator-side transport
// work overlaps remote compute instead of extending the stage's period.
//
// The driver is fault-tolerant: every exec wait is deadline-bounded, a lost
// or wedged connection moves its strip onto a healthy replica (bounded
// retries, while a background goroutine redials the lost worker with
// exponential backoff), and a worker that exhausts its redial budget is
// marked down for good — the stage re-balances its strips across the
// survivors and keeps serving.
type stageDriver struct {
	index int // stage position, for fault events
	stage core.Stage
	// slots are the per-position connection states, parallel to
	// stage.DeviceIdx; nil for positions idle in the original plan.
	slots []*workerSlot
	calc  *partition.Calc
	ref   struct {
		name string
		seed int64
	}
	// in and out are the stage's full input and output map shapes.
	in, out nn.Shape
	// window caps how many tasks may be dispatched but not yet stitched.
	window int
	// timeout bounds each tile round trip on this stage.
	timeout time.Duration
	// record accumulates per-device compute time into the pipeline stats
	// (and, when telemetry is attached, the per-device exec series).
	record func(deviceIdx int, seconds float64)
	// stageProd records this stage's per-task round trip; nil without
	// telemetry.
	stageProd *telemetry.Producer
	p         *Pipeline

	// topoMu guards the live strip layout, which re-balancing rewrites
	// when a device goes down.
	topoMu sync.Mutex
	parts  []partition.Range
	dead   bool // no live device remains; flights fail fast

	// rr rotates replica choice across retries.
	rr atomic.Uint64
}

// flightWork is one dispatched task awaiting its strips.
type flightWork struct {
	f *flight
	// parts is the strip layout this flight was dispatched under (the live
	// layout can change concurrently on re-balance).
	parts []partition.Range
	calls []*call // parallel to parts; nil slots were idle or failed
	// retry lists part indices whose dispatch or wait failed transiently;
	// gather re-executes them on healthy replicas.
	retry []int
	start time.Time
}

func (sd *stageDriver) run(in <-chan *flight, out chan<- *flight, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(out)
	if sd.window <= 1 {
		// Synchronous: one task occupies the stage end to end.
		for f := range in {
			sd.gather(sd.dispatch(f))
			out <- f
		}
		return
	}
	// Pipelined: the dispatcher stays up to window-1 tasks ahead of the
	// gatherer, so its split/encode/send work overlaps worker compute.
	work := make(chan *flightWork, sd.window-1)
	var dispatchWG sync.WaitGroup
	dispatchWG.Add(1)
	go func() {
		defer dispatchWG.Done()
		defer close(work)
		for f := range in {
			work <- sd.dispatch(f)
		}
	}()
	for fw := range work {
		sd.gather(fw)
		out <- fw.f
	}
	dispatchWG.Wait()
}

// sendStrip slices one full-width input tile for a strip and sends it in
// the flight's dtype. The tile is fully serialized before return.
func (sd *stageDriver) sendStrip(wc *workerClient, f *flight, part, inR partition.Range) (*call, error) {
	sub := sliceTile(f.m, partition.Rect{Rows: inR, Cols: partition.Full(sd.in.W)})
	c, err := wc.startExec(wire.ExecHeader{
		TaskID: f.id,
		From:   sd.stage.From, To: sd.stage.To,
		OutLo: part.Lo, OutHi: part.Hi,
		InLo:      inR.Lo,
		ModelName: sd.ref.name,
		Seed:      sd.ref.seed,
	}, sub)
	recycleTile(sub)
	return c, err
}

// dispatch splits a flight's feature map into the stage's strips and sends
// every tile, returning the in-flight calls for gather. Send failures and
// disconnected slots are queued for gather's retry pass instead of failing
// the flight. Failed flights pass through untouched.
func (sd *stageDriver) dispatch(f *flight) *flightWork {
	fw := &flightWork{f: f, start: time.Now()}
	if f.err != nil {
		return fw
	}
	sd.topoMu.Lock()
	if sd.dead {
		sd.topoMu.Unlock()
		f.err = &FaultError{Device: -1, Kind: FaultDown,
			Err: fmt.Errorf("stage [%d,%d) has no live workers", sd.stage.From, sd.stage.To)}
		return fw
	}
	parts := append([]partition.Range(nil), sd.parts...)
	sd.topoMu.Unlock()
	fw.parts = parts
	fw.calls = make([]*call, len(parts))
	for k, part := range parts {
		if part.Empty() || sd.slots[k] == nil {
			continue
		}
		wc := sd.slots[k].current()
		if wc == nil {
			// Disconnected (redial in progress): gather retries this strip
			// on a healthy replica.
			fw.retry = append(fw.retry, k)
			continue
		}
		inR := sd.calc.InputRange(sd.stage.From, sd.stage.To, part)
		c, err := sd.sendStrip(wc, f, part, inR)
		if err != nil {
			sd.noteFault(k, wc, FaultConnLost, err)
			fw.retry = append(fw.retry, k)
			continue
		}
		fw.calls[k] = c
	}
	return fw
}

// gather collects a dispatched flight's strips — retrying transiently failed
// ones on healthy replicas — and stitches them into the stage output.
func (sd *stageDriver) gather(fw *flightWork) {
	f := fw.f
	if fw.calls == nil {
		return // flight failed before this stage
	}
	defer func() {
		end := time.Now()
		f.spans = append(f.spans, StageSpan{
			From: sd.stage.From, To: sd.stage.To,
			Start: fw.start, End: end,
		})
		if sd.stageProd != nil && f.err == nil {
			sd.stageProd.RecordAt(end, end.Sub(fw.start).Seconds())
		}
	}()
	outs := make([]tile, 0, len(fw.calls))
	rects := make([]partition.Rect, 0, len(fw.calls))
	for k, c := range fw.calls {
		if c == nil {
			continue
		}
		strip, comp, transient, err := c.waitExec(sd.timeout)
		if err != nil {
			// Keep draining the remaining calls so every in-flight
			// response is accounted for before the flight fails.
			if transient {
				sd.noteFault(k, c.wc, faultKind(err), err)
				fw.retry = append(fw.retry, k)
			} else if f.err == nil {
				f.err = err
			}
			continue
		}
		sd.record(sd.stage.DeviceIdx[k], comp)
		outs = append(outs, strip)
		rects = append(rects, sd.stripRect(fw.parts[k]))
	}
	// Retry pass: the stage input map is still alive here, so failed strips
	// can be re-sliced and executed on surviving replicas.
	for _, k := range fw.retry {
		if f.err != nil {
			break
		}
		strip, comp, di, err := sd.retryPart(f, fw.parts[k])
		if err != nil {
			f.err = err
			break
		}
		sd.record(di, comp)
		outs = append(outs, strip)
		rects = append(rects, sd.stripRect(fw.parts[k]))
	}
	if f.err == nil {
		if stitched, err := stitchTiles(outs, rects, sd.out.H, sd.out.W); err != nil {
			f.err = fmt.Errorf("runtime: stage [%d,%d) stitch: %w", sd.stage.From, sd.stage.To, err)
		} else {
			if f.owned {
				recycleTile(f.m)
			}
			f.m, f.owned = stitched, true
		}
	}
	for _, o := range outs {
		recycleTile(o) // copied into the stitched map, or the flight failed
	}
}

// stripRect is the output region of one strip: its rows at full width.
func (sd *stageDriver) stripRect(part partition.Range) partition.Rect {
	return partition.Rect{Rows: part, Cols: partition.Full(sd.out.W)}
}

// faultKind classifies a transient exec failure for the event log.
func faultKind(err error) FaultKind {
	if errors.Is(err, errDeadline) {
		return FaultTimeout
	}
	return FaultConnLost
}

// noteFault records a transport failure against a slot and starts its redial
// loop if one is not already running.
func (sd *stageDriver) noteFault(k int, wc *workerClient, kind FaultKind, err error) {
	slot := sd.slots[k]
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: slot.deviceIdx, Worker: slot.workerID,
		Kind: kind, Detail: err.Error(),
	})
	if slot.fault(wc) {
		sd.p.redialWG.Add(1)
		go sd.redial(slot)
	}
}

// pickLive returns a connected slot of this stage, rotating across calls so
// retries spread over the replicas. Returns (-1, nil) when none is live.
func (sd *stageDriver) pickLive() (int, *workerClient) {
	n := len(sd.slots)
	start := int(sd.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		k := (start + i) % n
		if sd.slots[k] == nil {
			continue
		}
		if wc := sd.slots[k].current(); wc != nil {
			return k, wc
		}
	}
	return -1, nil
}

// retryPart re-executes one strip on healthy replicas, waiting out a redial
// between attempts, until the retry budget is spent. It returns the strip,
// its compute seconds and the executing device index.
func (sd *stageDriver) retryPart(f *flight, part partition.Range) (tile, float64, int, error) {
	inR := sd.calc.InputRange(sd.stage.From, sd.stage.To, part)
	backoff := sd.p.redialBackoff
	lastErr := error(nil)
	for attempt := 0; attempt <= sd.p.retryBudget; attempt++ {
		if attempt > 0 {
			// Give an in-progress redial a chance to land before the next
			// attempt; skip the wait when the pipeline is closing.
			select {
			case <-sd.p.closing:
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		k, wc := sd.pickLive()
		if wc == nil {
			lastErr = fmt.Errorf("no live replica in stage [%d,%d)", sd.stage.From, sd.stage.To)
			continue
		}
		c, err := sd.sendStrip(wc, f, part, inR)
		if err != nil {
			sd.noteFault(k, wc, FaultConnLost, err)
			lastErr = err
			continue
		}
		strip, comp, transient, err := c.waitExec(sd.timeout)
		if err == nil {
			sd.p.faults.add(FaultEvent{
				Stage: sd.index, Device: sd.slots[k].deviceIdx, Worker: sd.slots[k].workerID,
				Kind: FaultRetried, Detail: fmt.Sprintf("task %d rows %v", f.id, part),
			})
			return strip, comp, sd.stage.DeviceIdx[k], nil
		}
		if !transient {
			// Worker-reported (deterministic) error: retrying elsewhere
			// would fail the same way.
			return nil, 0, 0, err
		}
		sd.noteFault(k, wc, faultKind(err), err)
		lastErr = err
	}
	return nil, 0, 0, &FaultError{
		Device: -1, Kind: FaultDown,
		Err: fmt.Errorf("task %d rows %v: retry budget exhausted: %w", f.id, part, lastErr),
	}
}

// redial tries to reconnect a lost worker with exponential backoff. On
// success the slot resumes serving its strips; after the last attempt the
// slot goes down for good and the stage re-balances onto the survivors.
func (sd *stageDriver) redial(slot *workerSlot) {
	defer sd.p.redialWG.Done()
	backoff := sd.p.redialBackoff
	for attempt := 1; attempt <= sd.p.redialAttempts; attempt++ {
		select {
		case <-sd.p.closing:
			// Pipeline tear-down: stop trying, leave the slot disconnected
			// (not down — no re-balance during close).
			slot.mu.Lock()
			slot.redialing = false
			slot.mu.Unlock()
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		wc, err := dialWorker(slot.addr)
		if err == nil {
			wc.conn.SetWriteTimeout(sd.timeout)
			if err = wc.loadModelQuant(sd.p.spec, sd.p.seed, sd.p.quant); err == nil {
				sd.p.trackClient(wc)
				slot.reconnected(wc)
				sd.p.faults.add(FaultEvent{
					Stage: sd.index, Device: slot.deviceIdx, Worker: slot.workerID,
					Kind: FaultRedialed, Detail: fmt.Sprintf("attempt %d", attempt),
				})
				return
			}
			_ = wc.close()
		}
	}
	slot.markDown()
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: slot.deviceIdx, Worker: slot.workerID,
		Kind: FaultDown, Detail: fmt.Sprintf("%d redial attempts failed", sd.p.redialAttempts),
	})
	sd.rebalance()
}

// rebalance re-splits the stage's output rows across the surviving devices
// (the divide-and-conquer balancer of Algorithm 2), or marks the stage dead
// when none survive.
func (sd *stageDriver) rebalance() {
	weights := make([]float64, len(sd.slots))
	live := 0
	for k, slot := range sd.slots {
		if slot == nil || slot.isDown() {
			continue
		}
		w := sd.p.speedOf(slot.deviceIdx)
		if w <= 0 {
			w = 1
		}
		weights[k] = w
		live++
	}
	if live == 0 {
		sd.topoMu.Lock()
		sd.dead = true
		sd.topoMu.Unlock()
		sd.p.faults.add(FaultEvent{
			Stage: sd.index, Device: -1, Kind: FaultDown,
			Detail: fmt.Sprintf("stage [%d,%d) has no live workers; tasks fail fast", sd.stage.From, sd.stage.To),
		})
		return
	}
	parts := sd.calc.Balanced(sd.stage.From, sd.stage.To, weights)
	sd.topoMu.Lock()
	sd.parts = parts
	sd.topoMu.Unlock()
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: -1, Kind: FaultRebalanced,
		Detail: fmt.Sprintf("strips re-balanced over %d survivor(s): %v", live, parts),
	})
}

// minMeasuredSamples is how many windowed exec samples a device needs before
// its measured speed overrides the planner's static profile in a measured
// re-balance.
const minMeasuredSamples = 8

// rebalanceMeasured re-splits the stage's strips using measured per-device
// execution times from the telemetry window: a device that computed rows_k
// rows in p50_k seconds weighs rows_k/p50_k, so a straggler the static
// profile did not predict sheds rows to its faster peers. Devices without
// enough windowed samples keep their profile speed. Returns whether the
// layout changed.
func (sd *stageDriver) rebalanceMeasured(window time.Duration) bool {
	if sd.p.telem == nil {
		return false
	}
	sd.topoMu.Lock()
	parts := append([]partition.Range(nil), sd.parts...)
	dead := sd.dead
	sd.topoMu.Unlock()
	if dead {
		return false
	}
	weights := make([]float64, len(sd.slots))
	live, measured := 0, 0
	for k, slot := range sd.slots {
		if slot == nil || slot.isDown() {
			continue
		}
		w := sd.p.speedOf(slot.deviceIdx)
		if w <= 0 {
			w = 1
		}
		if rows := float64(parts[k].Len()); rows > 0 {
			st := sd.p.telem.Series(telemetry.Key{
				Model: sd.p.telemLabel, Stage: sd.index, Device: slot.deviceIdx, Kind: telemetry.KindExec,
			}).StatsWindow(window)
			if st.WindowCount >= minMeasuredSamples && st.P50 > 0 {
				w = rows / st.P50
				measured++
			}
		}
		weights[k] = w
		live++
	}
	if live == 0 || measured < 2 {
		// Fewer than two measured devices gives the balancer nothing to
		// trade off against.
		return false
	}
	next := sd.calc.Balanced(sd.stage.From, sd.stage.To, weights)
	same := len(next) == len(parts)
	for k := 0; same && k < len(next); k++ {
		same = next[k] == parts[k]
	}
	if same {
		return false
	}
	sd.topoMu.Lock()
	sd.parts = next
	sd.topoMu.Unlock()
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: -1, Kind: FaultRebalanced,
		Detail: fmt.Sprintf("slo: measured re-split over %d device(s): %v", live, next),
	})
	return true
}

// Pipeline executes a PICO plan over TCP workers, one stage driver per
// stage, all running concurrently so tasks overlap in the pipeline.
type Pipeline struct {
	plan   *core.Plan
	seed   int64
	spec   wire.ModelSpec
	stages []*stageDriver

	// quant selects int8 transport and execution; scale0 is the calibrated
	// input-boundary scale used to quantize submitted inputs. Both sides
	// derive calibration from (model, seed), so only the input scale is
	// needed coordinator-side — result headers carry scales forward.
	quant  bool
	scale0 float32

	// Fault-tolerance policy (defaulted from PipelineOptions).
	retryBudget    int
	redialAttempts int
	redialBackoff  time.Duration

	in      chan *flight
	results chan TaskResult
	wg      sync.WaitGroup
	// closing is closed during Close, after the stage drivers drain: it
	// stops redial loops and retry backoff waits.
	closing chan struct{}
	// redialWG tracks background redial goroutines.
	redialWG sync.WaitGroup

	mu     sync.Mutex
	nextID int64
	closed bool

	// cmu guards clients, which grows when redials create connections.
	cmu     sync.Mutex
	clients []*workerClient

	// faults is the bounded fault-event journal.
	faults faultLog

	// stats holds one lock-free counter per device, built once at
	// construction; stage goroutines update them with atomics on every
	// tile, so the per-tile hot path never takes the pipeline mutex.
	stats map[int]*deviceCounter

	// byDevice holds one control connection per cluster device for
	// out-of-band requests (worker stats); a device serving several
	// stages keeps its first connection here.
	byDevice map[int]*workerClient

	// telem, when attached, receives latency samples keyed under telemLabel:
	// whole-task e2e in the sink, per-stage round trips in gather, per-device
	// exec seconds through record. All writes go through lock-free ring
	// producers, so the hot path cost is a few atomic stores.
	telem      *telemetry.Registry
	telemLabel string
	e2eProd    *telemetry.Producer
}

// deviceCounter accumulates one device's activity with atomics.
type deviceCounter struct {
	tiles atomic.Int64
	// computeBits holds the float64 bit pattern of accumulated compute
	// seconds, updated by CAS.
	computeBits atomic.Uint64
}

func (dc *deviceCounter) add(seconds float64) {
	dc.tiles.Add(1)
	for {
		old := dc.computeBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + seconds)
		if dc.computeBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// WorkerStat aggregates one device's activity over the pipeline's lifetime.
type WorkerStat struct {
	// Tiles is the number of tiles the device executed.
	Tiles int
	// ComputeSeconds is the accumulated worker-reported compute time
	// (including any emulated-capacity throttling).
	ComputeSeconds float64
}

// PipelineOptions configure pipeline construction.
type PipelineOptions struct {
	// Seed is the shared weight seed (default 1).
	Seed int64
	// QueueDepth is the per-stage input buffer (default 8).
	QueueDepth int
	// StageWindow caps how many tasks a stage driver may have dispatched
	// but not yet stitched. 1 is fully synchronous (send, compute, gather
	// one task at a time — the pre-v2 behaviour); the default 2 double-
	// buffers: the coordinator slices, serializes and sends task N+1's
	// tiles while the workers still compute task N.
	StageWindow int

	// ExecTimeout bounds every tile round trip (send through result). Zero
	// derives a per-stage deadline from the plan's modelled stage cost:
	// floor + DeadlineSlack × modelled stage seconds — generous enough for
	// honest slowness, finite so a wedged worker cannot stall the pipeline.
	// Negative disables deadlines entirely (a benchmarking/debug escape
	// hatch: a wedged worker can then stall the pipeline forever).
	ExecTimeout time.Duration
	// DeadlineSlack multiplies the modelled stage seconds when deriving
	// per-stage deadlines (default 8).
	DeadlineSlack float64
	// RetryBudget is how many times a transiently failed tile is re-executed
	// on a healthy replica before its task fails with a FaultError
	// (default 2; negative disables retries).
	RetryBudget int
	// RedialAttempts is how many exponential-backoff reconnects a lost
	// worker gets before it is marked down and its stage re-balanced across
	// the survivors (default 3; negative disables redial).
	RedialAttempts int
	// RedialBackoff is the initial reconnect backoff, doubled per attempt
	// (default 100ms). It also paces retryPart's wait for a redial to land.
	RedialBackoff time.Duration

	// Quantized runs the whole pipeline in int8: inputs are quantized once
	// at Submit, every stage boundary ships int8 tiles (4x smaller than
	// float32), workers execute the quantized kernels, and the final output
	// is dequantized into TaskResult.Output.
	Quantized bool

	// Telemetry, when non-nil, receives latency samples from the pipeline's
	// hot paths: whole-task end-to-end ("e2e"), per-stage round trips
	// ("stage") and per-device worker compute ("exec"). Nil keeps the
	// pipeline telemetry-free.
	Telemetry *telemetry.Registry
	// TelemetryLabel is the model label telemetry series are keyed under
	// (default: the plan's model name). The gateway sets it to the session
	// key so concurrent model variants stay distinguishable.
	TelemetryLabel string
}

// Deadline-derivation defaults: a hung worker is detected after
// deadlineFloor + slack × the stage's modelled seconds, so emulated-slow
// devices get proportionally longer leashes.
const (
	defaultDeadlineSlack = 8.0
	deadlineFloor        = 5 * time.Second
)

// NewPipeline connects to the workers backing the plan's devices and starts
// the stage drivers. addrs maps cluster device index to worker address;
// every device holding a non-empty strip must be present.
func NewPipeline(plan *core.Plan, addrs map[int]string, opts PipelineOptions) (*Pipeline, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.StageWindow <= 0 {
		opts.StageWindow = 2
	}
	if opts.RetryBudget == 0 {
		opts.RetryBudget = 2
	} else if opts.RetryBudget < 0 {
		opts.RetryBudget = 0
	}
	if opts.RedialAttempts == 0 {
		opts.RedialAttempts = 3
	} else if opts.RedialAttempts < 0 {
		opts.RedialAttempts = 0
	}
	if opts.RedialBackoff <= 0 {
		opts.RedialBackoff = 100 * time.Millisecond
	}
	p := &Pipeline{
		plan:           plan,
		seed:           opts.Seed,
		quant:          opts.Quantized,
		retryBudget:    opts.RetryBudget,
		redialAttempts: opts.RedialAttempts,
		redialBackoff:  opts.RedialBackoff,
		in:             make(chan *flight, opts.QueueDepth),
		results:        make(chan TaskResult, opts.QueueDepth),
		closing:        make(chan struct{}),
		stats:          make(map[int]*deviceCounter),
		byDevice:       make(map[int]*workerClient),
	}
	p.spec = wire.SpecFromModel(plan.Model)
	if opts.Telemetry != nil {
		p.telem = opts.Telemetry
		p.telemLabel = opts.TelemetryLabel
		if p.telemLabel == "" {
			p.telemLabel = plan.Model.Name
		}
		p.e2eProd = p.telem.Series(telemetry.Key{
			Model: p.telemLabel, Stage: -1, Device: -1, Kind: telemetry.KindE2E,
		}).Producer()
	}
	if p.quant {
		scales, err := tensor.QuantScales(plan.Model, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("runtime: quantization calibration: %w", err)
		}
		p.scale0 = scales[0]
	}
	calc := partition.NewCalc(plan.Model)
	fail := func(err error) (*Pipeline, error) {
		for _, c := range p.clients {
			_ = c.close()
		}
		return nil, err
	}
	for si, st := range plan.Stages {
		timeout := opts.ExecTimeout
		if timeout < 0 {
			timeout = 0 // deadlines off: waits block until the conn dies
		} else if timeout == 0 {
			slack := opts.DeadlineSlack
			if slack <= 0 {
				slack = defaultDeadlineSlack
			}
			timeout = deadlineFloor + time.Duration(st.Seconds()*slack*float64(time.Second))
		}
		sd := &stageDriver{
			index:   si,
			stage:   st,
			slots:   make([]*workerSlot, len(st.DeviceIdx)),
			calc:    calc,
			in:      plan.Model.InShape(st.From),
			out:     plan.Model.OutShape(st.To - 1),
			window:  opts.StageWindow,
			timeout: timeout,
			p:       p,
		}
		sd.parts = append([]partition.Range(nil), st.Parts...)
		sd.ref.name = plan.Model.Name
		sd.ref.seed = opts.Seed
		sd.record = p.recordCompute
		if p.telem != nil {
			sd.stageProd = p.telem.Series(telemetry.Key{
				Model: p.telemLabel, Stage: si, Device: -1, Kind: telemetry.KindStage,
			}).Producer()
			execProd := make(map[int]*telemetry.Producer, len(st.DeviceIdx))
			for _, di := range st.DeviceIdx {
				if execProd[di] == nil {
					execProd[di] = p.telem.Series(telemetry.Key{
						Model: p.telemLabel, Stage: si, Device: di, Kind: telemetry.KindExec,
					}).Producer()
				}
			}
			sd.record = func(deviceIdx int, seconds float64) {
				p.recordCompute(deviceIdx, seconds)
				if pr := execProd[deviceIdx]; pr != nil {
					pr.Record(seconds)
				}
			}
		}
		for k, di := range st.DeviceIdx {
			if st.Parts[k].Empty() {
				continue
			}
			addr, ok := addrs[di]
			if !ok {
				return fail(fmt.Errorf("runtime: no address for device %d", di))
			}
			wc, err := dialWorker(addr)
			if err != nil {
				return fail(err)
			}
			wc.conn.SetWriteTimeout(timeout)
			p.clients = append(p.clients, wc)
			if p.byDevice[di] == nil {
				p.byDevice[di] = wc
			}
			if err := wc.loadModelQuant(p.spec, opts.Seed, p.quant); err != nil {
				return fail(err)
			}
			sd.slots[k] = &workerSlot{deviceIdx: di, addr: addr, workerID: wc.id, wc: wc}
			if p.stats[di] == nil {
				p.stats[di] = &deviceCounter{}
			}
		}
		p.stages = append(p.stages, sd)
	}

	// Wire the stage channels and start the drivers.
	prev := p.in
	for _, sd := range p.stages {
		next := make(chan *flight, opts.QueueDepth)
		p.wg.Add(1)
		go sd.run(prev, next, &p.wg)
		prev = next
	}
	p.wg.Add(1)
	go func(last <-chan *flight) {
		defer p.wg.Done()
		defer close(p.results)
		for f := range last {
			out, _ := f.m.(tensor.Tensor)
			if q, quant := f.m.(tensor.QTensor); quant {
				if f.err == nil {
					// Hand the caller float output regardless of transport
					// precision; the int8 map served its last hop.
					out = q.Dequantize()
				}
				if f.owned {
					tensor.RecycleQ(q)
				}
			}
			done := time.Now()
			if p.e2eProd != nil && f.err == nil {
				p.e2eProd.RecordAt(done, done.Sub(f.submitted).Seconds())
			}
			p.results <- TaskResult{
				ID:        f.id,
				Output:    out,
				Err:       f.err,
				Submitted: f.submitted,
				Done:      done,
				Spans:     f.spans,
			}
		}
	}(prev)
	return p, nil
}

// speedOf returns a device's effective modelled speed for re-balancing.
func (p *Pipeline) speedOf(deviceIdx int) float64 {
	if p.plan.Cluster == nil || deviceIdx < 0 || deviceIdx >= len(p.plan.Cluster.Devices) {
		return 0
	}
	return p.plan.Cluster.Devices[deviceIdx].EffectiveSpeed()
}

// trackClient registers a redial-created connection for Close.
func (p *Pipeline) trackClient(wc *workerClient) {
	p.cmu.Lock()
	p.clients = append(p.clients, wc)
	p.cmu.Unlock()
}

// Submit enqueues one input for inference and returns its task ID. It
// blocks when the pipeline's input queue is full.
func (p *Pipeline) Submit(input tensor.Tensor) (int64, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, errors.New("runtime: pipeline closed")
	}
	p.nextID++
	id := p.nextID
	p.mu.Unlock()
	f := &flight{id: id, submitted: time.Now()}
	if p.quant {
		// Quantize once at the pipeline mouth; the input tensor itself is
		// not retained, matching the float path's never-recycle contract.
		f.m = tensor.QuantizeTensor(input, p.scale0)
		f.owned = true
	} else {
		f.m = input
	}
	p.in <- f
	return id, nil
}

// Results delivers completed tasks in submission order. The channel closes
// after Close once all in-flight tasks finish.
func (p *Pipeline) Results() <-chan TaskResult { return p.results }

// Close stops accepting tasks, drains the pipeline and disconnects workers.
// The drain is bounded even under faults: every exec wait carries a
// deadline, retries and redials have budgets, so Close cannot block forever
// on a wedged worker.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.in)
	p.wg.Wait()
	close(p.closing)
	p.redialWG.Wait()
	var firstErr error
	p.cmu.Lock()
	clients := append([]*workerClient(nil), p.clients...)
	p.cmu.Unlock()
	for _, c := range clients {
		err := c.close()
		if err != nil && firstErr == nil && !errors.Is(err, errClosed) && c.alive() {
			firstErr = err
		}
	}
	return firstErr
}

// Plan returns the executed plan.
func (p *Pipeline) Plan() *core.Plan { return p.plan }

// FaultEvents returns a snapshot of the pipeline's fault journal: timeouts,
// lost connections, retries, redials, devices marked down and stage
// re-balances, in observation order. dropped counts events beyond the
// journal's cap.
func (p *Pipeline) FaultEvents() (events []FaultEvent, dropped int) {
	return p.faults.snapshot()
}

// DownDevices returns the cluster device indices currently marked down,
// sorted ascending.
func (p *Pipeline) DownDevices() []int {
	var down []int
	for _, sd := range p.stages {
		for _, slot := range sd.slots {
			if slot != nil && slot.isDown() {
				down = append(down, slot.deviceIdx)
			}
		}
	}
	sort.Ints(down)
	return down
}

// SLORebalance re-splits every stage's strips from measured per-device
// execution times in the given telemetry window — the SLO watcher's control
// action, reusing the same divide-and-conquer balancer the fault path runs
// when a device dies. It returns how many stages changed layout. A pipeline
// built without telemetry returns 0.
func (p *Pipeline) SLORebalance(window time.Duration) int {
	if p.telem == nil {
		return 0
	}
	if window <= 0 {
		window = p.telem.Window()
	}
	n := 0
	for _, sd := range p.stages {
		if sd.rebalanceMeasured(window) {
			n++
		}
	}
	return n
}

// Telemetry returns the registry attached at construction, or nil.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.telem }

// recordCompute accumulates a worker-reported tile execution. Lock-free:
// the counter map is immutable after construction and each counter is
// atomic, so concurrent stage goroutines never contend on a pipeline-wide
// mutex.
func (p *Pipeline) recordCompute(deviceIdx int, seconds float64) {
	if dc := p.stats[deviceIdx]; dc != nil {
		dc.add(seconds)
	}
}

// WorkerStats returns a snapshot of per-device activity, keyed by cluster
// device index. Devices that have not executed a tile yet report zeros.
func (p *Pipeline) WorkerStats() map[int]WorkerStat {
	out := make(map[int]WorkerStat, len(p.stats))
	for di, dc := range p.stats {
		out[di] = WorkerStat{
			Tiles:          int(dc.tiles.Load()),
			ComputeSeconds: math.Float64frombits(dc.computeBits.Load()),
		}
	}
	return out
}

// WorkerKindSeconds asks every worker for its per-layer-kind kernel-time
// attribution (conv, pointwise, depthwise, pool, fc) and returns it keyed by
// cluster device index. Unlike WorkerStats' coordinator-side accounting,
// these are wall-clock kernel seconds measured inside the workers' executors
// — emulated-capacity sleep top-ups are excluded, so the split shows where
// the real arithmetic went. Devices whose control connection has died
// (crashed or down workers) are skipped rather than failing the snapshot.
func (p *Pipeline) WorkerKindSeconds() (map[int]map[string]float64, error) {
	out := make(map[int]map[string]float64, len(p.byDevice))
	for di, wc := range p.byDevice {
		if !wc.alive() {
			continue
		}
		ks, err := wc.stats()
		if err != nil {
			if errors.Is(err, ErrWorkerFault) || !wc.alive() {
				continue
			}
			return nil, fmt.Errorf("runtime: stats from device %d: %w", di, err)
		}
		out[di] = ks
	}
	return out, nil
}
