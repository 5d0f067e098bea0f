package main

import (
	"context"
	"fmt"
	"time"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/runtime"
	"pico/internal/serve"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// weightSeed is the model weight seed every workload serves. The workload
// seed only varies the generated inputs and arrival times.
const weightSeed = 1

// sessionSpec is one traffic class of a workload: a gateway session key
// reached through the request's query parameters.
type sessionSpec struct {
	label string
	// plan is sent as plan=; empty leaves the gateway's default policy.
	plan   string
	quant  bool
	weight float64
}

func (s sessionSpec) query(model string) string {
	q := "model=" + model
	if s.plan != "" {
		q += "&plan=" + s.plan
	}
	if s.quant {
		q += "&quant=1"
	}
	return q
}

// workload is one fixed traffic mix against one fixed cluster. Every rate
// below is an absolute number set once from the parent commit's measured
// sat_rps on the reference host (2 vCPUs, x86-64 with AVX2) and is never
// recomputed from the program under test: light ≈ 40%, knee ≈ 80% and over
// ≈ 150% of it, the span of the paper's Figs. 10/11.
type workload struct {
	name  string
	model func() *nn.Model
	// workers is the loopback cluster size; workerPar the kernel
	// parallelism each worker uses (1 = one core per device, like the
	// paper's single-core Raspberry Pis; 0 = the worker default, every
	// core). Native workloads use the default: DiscoverCluster then
	// measures each worker alone on every core, so the plans' modelled
	// period is well below the real one of two workers sharing the host,
	// and a closed loop at full speed stays inside admission's M/D/1
	// stability bound.
	workers   int
	workerPar int
	// emulated holds per-worker emulated speeds in MAC/s (nil: native).
	emulated []float64
	// capacity is the per-device speed (MAC/s) the gateway plans with,
	// and bandwidth the loopback bytes/s the plans price transfers at.
	capacity  []float64
	bandwidth float64
	// nativeSpeed is the MAC/s the cost-model residual prices the model's
	// layers at, timed locally at workerPar: the calibrated capacity on
	// native workloads, a one-core calibration where speeds are emulated.
	nativeSpeed float64
	sessions    []sessionSpec
	// Open-loop arrival rates (requests/s) and burst size (requests that
	// arrive together; 1 = plain Poisson).
	light, knee, over float64
	burst             int
	// satClients is the closed loop's number of outstanding requests.
	satClients int
	// limit is the latency limit a response must meet to count as goodput;
	// it is also the gateway's admission latency bound.
	limit time.Duration
	// maxQueue is the gateway's intake queue bound (0: the default 64).
	maxQueue int
	// pool is the number of distinct generated inputs.
	pool int
}

func (w *workload) cluster() *cluster.Cluster {
	c := &cluster.Cluster{BandwidthBps: w.bandwidth}
	for i, cp := range w.capacity {
		c.Devices = append(c.Devices, cluster.Device{ID: fmt.Sprintf("d%d", i), Capacity: cp, Alpha: 1})
	}
	return c
}

func (w *workload) mix() []float64 {
	m := make([]float64, len(w.sessions))
	for i, s := range w.sessions {
		m[i] = s.weight
	}
	return m
}

// fig13Emulated returns the Fig. 13 cluster's frequency ratios scaled so the
// fastest device runs at top MAC/s.
func fig13Emulated(top float64) []float64 {
	c := cluster.Fig13Heterogeneous()
	out := make([]float64, len(c.Devices))
	for i, d := range c.Devices {
		out[i] = d.Capacity / c.Devices[0].Capacity * top
	}
	return out
}

// loopbackBps is the transfer rate every plan prices the loopback at:
// the sustained rate of one 600 KB-message TCP stream between two sockets
// of one process on the reference host (perfbench -calibrate prints it).
const loopbackBps = 2.5e9

// The gateway's arrival-rate estimator runs with a 1 s window and beta 1:
// each window's measured rate becomes the estimate. The default 10 s window
// would not close once inside a phase, and with beta below 1 the window in
// which overload first shows would depend on the estimate a phase inherits.
// Phases start on window boundaries (see alignToWindow), so the admission
// decisions of a phase do not depend on where it starts within a window.
const (
	estimatorWindow = time.Second
	estimatorBeta   = 1.0
)

// heteroEmulated is the paper's Fig. 13 cluster slept out on six loopback
// workers, every request in one session: compute is emulated, so kernels
// barely matter and the planner, stage overlap, admission and batching set
// the numbers. At 0.1 GMAC/s for the fastest device real compute stays below
// a tenth of the emulated time, and the modelled period (2.96 ms) stays about
// 20% below the measured one, so the sat closed loop runs clear of the
// admission controller's M/D/1 stability bound 1/period. At half that speed
// the fixed per-stage overheads shrink relative to the period, the margin
// with them, and in trial runs the sat loop tipped admission into shedding
// every request.
func heteroEmulated(name string, quant bool, light, knee, over float64) *workload {
	speeds := fig13Emulated(0.1e9)
	return &workload{
		name: name,
		model: func() *nn.Model {
			return nn.ToyChain("hetero", 6, 2, 4, 64)
		},
		workers:     6,
		workerPar:   1,
		emulated:    speeds,
		capacity:    speeds,
		bandwidth:   loopbackBps,
		nativeSpeed: 1.9e9,
		sessions:    []sessionSpec{{label: "default", quant: quant, weight: 1}},
		light:       light, knee: knee, over: over,
		burst:      1,
		satClients: 16,
		// The intake queue holds about 0.9 s of work: when the shared host
		// stalls the workers for a few hundred ms at the knee rate, the
		// backlog waits instead of being shed (a 429 at the knee is a
		// failure). Over fills the queue; the limit sits clear of it so
		// goodput does not hinge on the boundary.
		limit:    1500 * time.Millisecond,
		maxQueue: 256,
		pool:     32,
	}
}

// workloads lists every workload the benchmark can run. BENCHMARK.json
// gates the two emulated ones. The two native ones are CPU-bound on a host
// the harness shares, and on the reference host their latencies moved by
// 30% to 100% between runs, more than any regression bound can absorb: a
// one-core forward there runs at one of two speeds depending on which vCPU
// it lands on, and near the knee that decides the queueing. MobileNetV1
// also gives a light phase only ~260 requests, too few for a p99 with ten
// samples beyond it. They stay runnable by name for investigation.
var workloads = []*workload{
	// hetero-emulated: requests carry no plan= parameter, so the gateway's
	// default policy is what gets measured.
	heteroEmulated("hetero-emulated", false, 110, 220, 415),
	// hetero-int8: the same with quant=1: one-byte stage boundaries in the
	// planner, quantize at the pipeline mouth, int8 tiles on the wire and
	// int8 kernels on the workers.
	heteroEmulated("hetero-int8", true, 115, 230, 430),
	// native-mobilenet: MobileNetV1 at native speed on 2 workers, half the
	// requests int8; float and int8 kernels and 600 KB payloads do the work.
	{
		name: "native-mobilenet",
		model: func() *nn.Model {
			return nn.MobileNetV1()
		},
		workers:     2,
		workerPar:   0,
		capacity:    []float64{1.664e10, 1.664e10},
		bandwidth:   loopbackBps,
		nativeSpeed: 1.664e10,
		sessions: []sessionSpec{
			{label: "float", weight: 1},
			{label: "int8", quant: true, weight: 1},
		},
		light: 15, knee: 30, over: 56,
		burst:      1,
		satClients: 8,
		// Over fills the 64-request intake queue, about 2 s of work; the
		// limit sits clear of it so goodput does not hinge on the boundary.
		limit: 3 * time.Second,
		pool:  8,
	},
	// small-mixed: 16 KB toy inputs in Poisson bursts of four over
	// {pico,fused}x{float,int8}; per-request fixed costs of the gateway,
	// batcher, wire and telemetry dominate.
	{
		name: "small-mixed",
		model: func() *nn.Model {
			return nn.ToyChain("small", 4, 2, 4, 64)
		},
		workers:     2,
		workerPar:   0,
		capacity:    []float64{3.565e9, 3.65e9},
		bandwidth:   loopbackBps,
		nativeSpeed: 3.6e9,
		sessions: []sessionSpec{
			{label: "pico-float", plan: serve.PlanPICO, weight: 1},
			{label: "pico-int8", plan: serve.PlanPICO, quant: true, weight: 1},
			{label: "fused-float", plan: serve.PlanFused, weight: 1},
			{label: "fused-int8", plan: serve.PlanFused, quant: true, weight: 1},
		},
		light: 960, knee: 1920, over: 3600,
		burst:      4,
		satClients: 64,
		limit:      500 * time.Millisecond,
		// At ~2000 requests/s and 5-30 ms latencies, Little's law puts 10
		// to 60 requests inside the gateway; bursts at the knee rate would
		// hit the default 64-request intake bound.
		maxQueue: 256,
		pool:     32,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// corpus is the generated input pool with its expected response bodies,
// computed locally at set-up (untimed): want[quant][i] is the encoded
// output of Executor.Run (float) or RunQ dequantized (int8) for input i.
type corpus struct {
	payload [][]byte
	want    [2][][]byte
}

func buildCorpus(w *workload, m *nn.Model, seed int64) (*corpus, error) {
	rng := rngFor(seed, w.name, "inputs")
	c := &corpus{}
	var needQ [2]bool
	for _, s := range w.sessions {
		needQ[b2i(s.quant)] = true
	}
	var execs [2]*tensor.Executor
	for q := range execs {
		if !needQ[q] {
			continue
		}
		var opts []tensor.ExecutorOption
		if q == 1 {
			opts = append(opts, tensor.WithQuantized())
		}
		e, err := tensor.NewExecutor(m, weightSeed, opts...)
		if err != nil {
			return nil, err
		}
		execs[q] = e
	}
	for i := 0; i < w.pool; i++ {
		in := tensor.RandomInput(m.Input, rng.Int63())
		c.payload = append(c.payload, wire.EncodeTensor(in))
		for q, e := range execs {
			if e == nil {
				continue
			}
			var out tensor.Tensor
			if q == 1 {
				oq, err := e.RunQ(in)
				if err != nil {
					return nil, fmt.Errorf("reference RunQ: %w", err)
				}
				out = oq.Dequantize()
			} else {
				var err error
				if out, err = e.Run(in); err != nil {
					return nil, fmt.Errorf("reference Run: %w", err)
				}
			}
			c.want[q] = append(c.want[q], wire.EncodeTensor(out))
		}
	}
	return c, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stack is one running system under test: the loopback worker cluster and
// the gateway in front of it.
type stack struct {
	lc *runtime.LocalCluster
	g  *serve.Gateway
	// serveErr receives Serve's exit once the socket smoke test started it.
	serveErr chan error
	// first is when the gateway's first request was sent: its arrival-rate
	// windows are laid out from that instant.
	first time.Time
}

// alignToWindow sleeps until just after the gateway's next arrival-rate
// window boundary.
func (s *stack) alignToWindow() {
	const margin = 10 * time.Millisecond
	elapsed := time.Since(s.first)
	next := (elapsed/estimatorWindow + 1) * estimatorWindow
	time.Sleep(next + margin - elapsed)
}

// startStack boots the cluster and gateway and sends one request to every
// session the workload uses, returning once each has answered 200 with the
// expected bytes. The returned duration is the workload's set-up time:
// planning, dialing, model load and int8 calibration all happen inside it.
func (b *bench) startStack() (*stack, time.Duration, error) {
	w := b.w
	t0 := time.Now()
	lc, err := runtime.StartLocalCluster(w.workers, w.emulated, runtime.WithParallelism(w.workerPar))
	if err != nil {
		return nil, 0, err
	}
	g, err := serve.New(serve.Config{
		Cluster:       w.cluster(),
		Addrs:         lc.Addrs,
		Models:        map[string]*nn.Model{b.m.Name: b.m},
		Seed:          weightSeed,
		LatencyBound:  w.limit.Seconds(),
		MaxQueue:      w.maxQueue,
		WindowSeconds: estimatorWindow.Seconds(),
		Beta:          estimatorBeta,
	})
	if err != nil {
		_ = lc.Close()
		return nil, 0, err
	}
	s := &stack{lc: lc, g: g, first: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for i := range w.sessions {
		o := b.call(ctx, g.Handler(), request{session: i}, time.Now())
		if o.status != 200 || !o.match {
			_ = s.close()
			return nil, 0, fmt.Errorf("set-up request to session %s: status %d, output match %v", w.sessions[i].label, o.status, o.match)
		}
	}
	return s, time.Since(t0), nil
}

func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.g.Shutdown(ctx)
	if s.serveErr != nil {
		if serr := <-s.serveErr; err == nil {
			err = serr
		}
	}
	if cerr := s.lc.Close(); err == nil {
		err = cerr
	}
	return err
}
