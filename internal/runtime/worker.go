// Package runtime is the distributed execution engine: Go TCP workers and a
// pipeline coordinator realizing the paper's stage workflow (Fig. 6). Each
// stage's leader splits the incoming feature map into overlapping tiles
// according to the plan's strips, distributes them to the stage's workers,
// gathers and stitches the results, and forwards the stitched map to the
// next stage — with every stage running concurrently, so multiple tasks are
// in flight at once (the pipeline).
//
// It replaces the paper's C++/LibTorch framework; the backend is the
// pure-Go tensor engine, and model weights are derived from a shared seed so
// only geometry crosses the network.
package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/tensor"
	"pico/internal/wire"
)

// Worker is an edge-device daemon: it accepts coordinator connections,
// loads model descriptions, and executes segment tiles on request.
type Worker struct {
	id string
	ln net.Listener

	// emulatedSpeed, when positive, throttles the worker to the given
	// effective MAC/s by sleeping out the remainder of the modelled
	// compute time — how a fast development host impersonates a 600 MHz
	// Raspberry Pi core. The budget models the device's aggregate
	// arithmetic throughput: kernel parallelism only shrinks the real
	// compute fraction of the interval, and the sleep tops it back up to
	// the same FLOPs/speed total, so emulated capacity accounting is
	// independent of the parallelism setting.
	emulatedSpeed float64

	// parallelism caps the kernel worker count of this node's executors
	// (0 = all cores).
	parallelism int

	// execQueue is the per-connection bounded exec request queue depth:
	// the serve loop keeps reading (and the coordinator keeps sending)
	// while up to this many tiles wait for the compute goroutine, so
	// transmission overlaps computation. Depth 1 restores strict
	// request-at-a-time behaviour.
	execQueue int

	logf func(format string, args ...any)

	// fault is the injection plan for chaos tests; the zero value injects
	// nothing.
	fault    Fault
	execSeen atomic.Int64
	connSeen atomic.Int64

	mu    sync.Mutex
	execs map[execKey]*tensor.Executor
	conns map[*wire.Conn]struct{}

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
}

// Fault is a deterministic fault-injection plan for a worker, used by the
// chaos suite and available to `piconode` experiments. Exec counts are
// 1-based and shared across all connections; the zero value injects nothing.
type Fault struct {
	// Wire injects write-path faults (drop, delay, sever) into accepted
	// connections via wire.FlakyConn.
	Wire wire.FlakyOptions
	// WireFirstConns limits Wire injection to the first N accepted
	// connections (0 = all), so a redialed replacement connection comes up
	// clean.
	WireFirstConns int
	// PanicOnExec makes the Nth exec request panic mid-execution; earlier
	// and later requests execute normally. Exercises the worker's panic
	// containment. Zero disables.
	PanicOnExec int
	// HangFromExec makes every exec request from the Nth on block without
	// replying until the worker closes — the wedged-but-connected scenario
	// only the coordinator's exec deadline can detect. Zero disables.
	HangFromExec int
	// CrashOnExec aborts the worker (listener and every connection severed)
	// upon receiving the Nth exec request. Zero disables.
	CrashOnExec int
}

// armed reports whether any exec-path fault is configured.
func (f Fault) armed() bool {
	return f.PanicOnExec > 0 || f.HangFromExec > 0 || f.CrashOnExec > 0
}

type execKey struct {
	name  string
	seed  int64
	quant bool
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithEmulatedSpeed throttles the worker to the given effective MAC/s.
func WithEmulatedSpeed(macPerSec float64) WorkerOption {
	return func(w *Worker) { w.emulatedSpeed = macPerSec }
}

// WithParallelism caps the number of CPU cores the worker's tensor kernels
// use per request (0 or negative = all cores, 1 = serial). Results are
// bit-identical at any setting.
func WithParallelism(n int) WorkerOption {
	return func(w *Worker) { w.parallelism = n }
}

// WithExecQueue sets the per-connection bounded exec queue depth (default
// 2 — double buffering: one tile computing, one received and waiting).
// Values below 1 are clamped to 1 (no overlap).
func WithExecQueue(n int) WorkerOption {
	return func(w *Worker) {
		if n < 1 {
			n = 1
		}
		w.execQueue = n
	}
}

// WithLogger routes worker diagnostics to the given function.
func WithLogger(logf func(format string, args ...any)) WorkerOption {
	return func(w *Worker) { w.logf = logf }
}

// WithFault arms a fault-injection plan on the worker.
func WithFault(f Fault) WorkerOption {
	return func(w *Worker) { w.fault = f }
}

// NewWorker starts listening on addr ("127.0.0.1:0" for an ephemeral test
// port). Serve must be called to begin handling requests.
func NewWorker(id, addr string, opts ...WorkerOption) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runtime: worker %s listen: %w", id, err)
	}
	w := &Worker{
		id:        id,
		ln:        ln,
		execQueue: 2,
		execs:     make(map[execKey]*tensor.Executor),
		conns:     make(map[*wire.Conn]struct{}),
		closing:   make(chan struct{}),
		logf:      func(string, ...any) {},
	}
	for _, opt := range opts {
		opt(w)
	}
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// ID returns the worker identifier.
func (w *Worker) ID() string { return w.id }

// Serve accepts and handles connections until Close. It returns nil after a
// clean shutdown.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.closing:
				w.wg.Wait()
				return nil
			default:
				return fmt.Errorf("runtime: worker %s accept: %w", w.id, err)
			}
		}
		if n := w.connSeen.Add(1); w.fault.Wire.Enabled() &&
			(w.fault.WireFirstConns == 0 || n <= int64(w.fault.WireFirstConns)) {
			conn = wire.NewFlakyConn(conn, w.fault.Wire)
		}
		wc := wire.NewConn(conn)
		w.mu.Lock()
		w.conns[wc] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handle(wc)
			w.mu.Lock()
			delete(w.conns, wc)
			w.mu.Unlock()
		}()
	}
}

// Close stops the listener; in-flight connections finish their current
// request. Close is idempotent: only the first call tears down (Abort calls
// Close, and cluster-level cleanup may Close an already-aborted worker).
func (w *Worker) Close() error {
	var err error
	w.closeOnce.Do(func() {
		close(w.closing)
		err = w.ln.Close()
	})
	return err
}

// Shutdown drains the worker gracefully: it stops accepting new
// connections, then waits up to grace for the live connections to finish
// their queued execs and disconnect on their own. Connections still open
// after grace — idle coordinators that never hang up, peers wedged
// mid-stream — are severed so the daemon terminates within a bound instead
// of waiting forever; a non-positive grace severs immediately. Serve
// returns nil after Shutdown completes.
func (w *Worker) Shutdown(grace time.Duration) error {
	err := w.Close()
	if grace > 0 {
		idle := make(chan struct{})
		go func() {
			w.wg.Wait()
			close(idle)
		}()
		select {
		case <-idle:
			return err
		case <-time.After(grace):
		}
	}
	w.mu.Lock()
	conns := make([]*wire.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	w.wg.Wait()
	return err
}

// Abort simulates a crash: the listener and every live connection are
// severed immediately, so coordinators see in-flight requests fail. Used by
// failure-injection tests and chaos tooling.
func (w *Worker) Abort() error {
	err := w.Close()
	w.mu.Lock()
	conns := make([]*wire.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

// handle serves one coordinator connection. The read loop and the compute
// goroutine are decoupled by a bounded exec queue so a queued tile's
// transmission overlaps the previous tile's computation; when the queue is
// full the loop stops reading and TCP backpressure reaches the coordinator.
func (w *Worker) handle(conn *wire.Conn) {
	defer func() {
		// Last-resort containment for the inline control path: a panicking
		// handler loses this connection but never the process — the worker
		// keeps serving its other connections and accepting new ones.
		if r := recover(); r != nil {
			w.logf("worker %s: connection handler panic contained: %v", w.id, r)
		}
	}()
	defer func() {
		if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			w.logf("worker %s: close %s: %v", w.id, conn.RemoteAddr(), err)
		}
	}()
	if err := conn.Send(wire.MsgHello, wire.HelloHeader{NodeID: w.id, Version: wire.ProtocolVersion}, nil); err != nil {
		w.logf("worker %s: hello: %v", w.id, err)
		return
	}
	queue := make(chan *wire.Message, w.execQueue)
	var computeWG sync.WaitGroup
	computeWG.Add(1)
	go func() {
		defer computeWG.Done()
		failed := false
		for msg := range queue {
			if !failed {
				if err := w.handleExec(conn, msg); err != nil {
					w.logf("worker %s: %v", w.id, err)
					failed = true
					_ = conn.Close() // unblock the read loop; the queue drains below
				}
			}
			wire.PutBuffer(msg.Payload)
		}
	}()
	defer computeWG.Wait()
	defer close(queue)
	for {
		msg, err := conn.Recv()
		if err != nil {
			return // peer gone or shutting down
		}
		if msg.Type == wire.MsgExec {
			queue <- msg // payload ownership moves to the compute goroutine
			continue
		}
		// Control frames are handled inline so a load or ping never waits
		// behind queued compute.
		switch msg.Type {
		case wire.MsgLoadModel:
			err = w.handleLoad(conn, msg)
		case wire.MsgPing:
			err = conn.SendRequest(wire.MsgPong, msg.ReqID, nil, nil)
		case wire.MsgStats:
			err = conn.SendRequest(wire.MsgStatsResult, msg.ReqID, wire.StatsHeader{KindSeconds: w.KindSeconds()}, nil)
		case wire.MsgShutdown:
			wire.PutBuffer(msg.Payload)
			return
		default:
			err = conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: fmt.Sprintf("unexpected %v", msg.Type)}, nil)
		}
		wire.PutBuffer(msg.Payload)
		if err != nil {
			w.logf("worker %s: %v", w.id, err)
			return
		}
	}
}

func (w *Worker) handleLoad(conn *wire.Conn, msg *wire.Message) error {
	var hdr wire.LoadModelHeader
	if err := msg.DecodeHeader(&hdr); err != nil {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: err.Error()}, nil)
	}
	m, err := hdr.Model.ToModel()
	if err != nil {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: err.Error()}, nil)
	}
	exec, err := tensor.NewExecutor(m, hdr.Seed, tensor.WithParallelism(w.parallelism))
	if err != nil {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: err.Error()}, nil)
	}
	var qexec *tensor.Executor
	if hdr.Quant {
		qexec, err = tensor.NewExecutor(m, hdr.Seed,
			tensor.WithParallelism(w.parallelism), tensor.WithQuantized())
		if err != nil {
			return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: err.Error()}, nil)
		}
		// Calibrate now, not on the first tile: scales are derived from
		// (model, seed), so a calibration failure is a load failure.
		if _, err := qexec.QuantScales(); err != nil {
			return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: err.Error()}, nil)
		}
	}
	w.mu.Lock()
	w.execs[execKey{name: m.Name, seed: hdr.Seed}] = exec
	if qexec != nil {
		w.execs[execKey{name: m.Name, seed: hdr.Seed, quant: true}] = qexec
	}
	w.mu.Unlock()
	w.logf("worker %s: loaded %s (seed %d, quant %v)", w.id, m.Name, hdr.Seed, hdr.Quant)
	return conn.SendRequest(wire.MsgPong, msg.ReqID, nil, nil)
}

// KindSeconds sums per-layer-kind kernel seconds over every executor the
// worker has loaded — the payload of a MsgStatsResult frame.
func (w *Worker) KindSeconds() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := map[string]float64{}
	for _, e := range w.execs {
		for kind, sec := range e.KindSeconds() {
			total[kind] += sec
		}
	}
	return total
}

func (w *Worker) executor(name string, seed int64, quant bool) (*tensor.Executor, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// A single loaded model is the common case; fall back to name lookup.
	if e, ok := w.execs[execKey{name: name, seed: seed, quant: quant}]; ok {
		return e, true
	}
	if name == "" {
		var match *tensor.Executor
		for k, e := range w.execs {
			if k.quant != quant {
				continue
			}
			if match != nil {
				return nil, false // ambiguous
			}
			match = e
		}
		if match != nil {
			return match, true
		}
	}
	return nil, false
}

func (w *Worker) handleExec(conn *wire.Conn, msg *wire.Message) (err error) {
	var hdr wire.ExecHeader
	// Contain panics from the executor (or injected ones): the request is
	// answered with a typed error frame and the worker keeps serving. The
	// coordinator treats the reply as deterministic — it fails the task
	// rather than retrying a computation that would panic again.
	defer func() {
		if r := recover(); r != nil {
			w.logf("worker %s: exec panic contained: %v", w.id, r)
			err = conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{
				TaskID:  hdr.TaskID,
				Message: fmt.Sprintf("panic: %v", r),
			}, nil)
		}
	}()
	if err := msg.DecodeExec(&hdr); err != nil {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{Message: err.Error()}, nil)
	}
	if n := w.execSeen.Add(1); w.fault.armed() {
		if w.fault.CrashOnExec > 0 && n >= int64(w.fault.CrashOnExec) {
			_ = w.Abort()
			return fmt.Errorf("injected crash on exec %d", n)
		}
		if w.fault.HangFromExec > 0 && n >= int64(w.fault.HangFromExec) {
			<-w.closing // never reply; only the peer's deadline can save it
			return fmt.Errorf("injected hang on exec %d released by close", n)
		}
		if w.fault.PanicOnExec > 0 && n == int64(w.fault.PanicOnExec) {
			panic(fmt.Sprintf("injected panic on exec %d", n))
		}
	}
	quant := hdr.DType == wire.DTypeInt8
	exec, ok := w.executor(hdr.ModelName, hdr.Seed, quant)
	if !ok {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{
			TaskID:  hdr.TaskID,
			Message: fmt.Sprintf("model %q (seed %d, quant %v) not loaded", hdr.ModelName, hdr.Seed, quant),
		}, nil)
	}
	// One path for every partition shape and dtype: strips and grid rects
	// share the whole-map kernels' accumulation order (and, for int8, the
	// requantize epilogue), so results are byte-identical to a local
	// Run/RunQ. Unknown dtypes fail here, before any compute.
	in, err := decodeTile(tileMeta{hdr.TileC, hdr.TileH, hdr.TileW, hdr.DType, hdr.Scale}, msg.Payload)
	if err != nil {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{TaskID: hdr.TaskID, Message: err.Error()}, nil)
	}
	start := time.Now()
	out, flops, err := runTile(exec, &hdr, in)
	recycleTile(in)
	if err != nil {
		return conn.SendRequest(wire.MsgError, msg.ReqID, wire.ErrorHeader{TaskID: hdr.TaskID, Message: err.Error()}, nil)
	}
	elapsed := w.emulate(time.Since(start), flops)
	// Zero-copy on little-endian hosts: the payload aliases the output's
	// data, and SendExecResult consumes it synchronously before the
	// output is recycled.
	m, payload, pooled := encodeTile(out)
	err = conn.SendExecResult(msg.ReqID, &wire.ExecResultHeader{
		TaskID:         hdr.TaskID,
		OutLo:          hdr.OutLo,
		C:              m.c,
		H:              m.h,
		W:              m.w,
		DType:          m.dtype,
		Scale:          m.scale,
		ComputeSeconds: elapsed.Seconds(),
	}, payload)
	if pooled {
		wire.PutBuffer(payload)
	}
	recycleTile(out)
	return err
}

// emulate tops a measured compute interval up to the modelled time for the
// given arithmetic work when speed emulation is on. flops models the
// device's aggregate arithmetic, independent of how many cores executed the
// kernels, so emulated capacity accounting is parallelism-independent.
func (w *Worker) emulate(elapsed time.Duration, flops float64) time.Duration {
	if w.emulatedSpeed <= 0 {
		return elapsed
	}
	want := time.Duration(flops / w.emulatedSpeed * float64(time.Second))
	if want > elapsed {
		time.Sleep(want - elapsed)
		elapsed = want
	}
	return elapsed
}
