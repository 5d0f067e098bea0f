package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	goruntime "runtime"
	"sort"
	"sync"
	"time"

	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/runtime"
	"pico/internal/serve"
	"pico/internal/simulate"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// Repetitions of the local per-layer measurements; each reports a median.
const (
	layerReps = 9
	codecReps = 20
	sweepReps = 15
)

// replayWindow bounds the direct Pipeline replay of the light schedule.
const replayWindow = 2 * time.Second

// scraper GETs /metrics every scrapeEvery during the traced phases, as a
// Prometheus server would, recording each scrape's duration.
type scraper struct {
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	ms   []float64
}

const scrapeEvery = 250 * time.Millisecond

func startScraper(h http.Handler, tr *tracer) *scraper {
	s := &scraper{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
			req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
			if err != nil {
				panic(err) // constant method and URL: only a bug gets here
			}
			d := tr.timed("telemetry.scrape", func() { h.ServeHTTP(&recorder{hdr: make(http.Header)}, req) })
			s.mu.Lock()
			s.ms = append(s.ms, ms(d))
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *scraper) stop() {
	close(s.done)
	s.wg.Wait()
	sort.Float64s(s.ms)
}

// planFor builds the plan the gateway builds for a session: the planner is
// deterministic, so this is the plan that served the session's requests.
func (b *bench) planFor(s sessionSpec) (*core.Plan, error) {
	if s.plan == serve.PlanFused {
		p, err := core.OneStagePlan(b.m, b.w.cluster())
		if err == nil {
			p.Quantized = s.quant
		}
		return p, err
	}
	return core.PlanPipeline(b.m, b.w.cluster(), core.Options{Quantized: s.quant})
}

// perLayer measures the traced run's per-layer metrics into m and returns
// the full tables behind them.
func (b *bench) perLayer(m map[string]metric, st *stack, stats map[string]*phaseStats, untracedLight *phaseStats, tr *tracer, sc *scraper) (map[string]any, error) {
	w := b.w
	tables := map[string]any{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// serve: handler self time is the handler span minus its runtime.task
	// child, the interval X-Pico-Latency reports.
	self := tr.selfMs("serve.handler")
	put("serve.self_ms.p50", quantile(self, 0.5), "ms")
	put("serve.self_ms.p99", quantile(self, 0.99), "ms")
	gs := st.g.GatewayStats()
	var batches, batched int64
	periods := map[serve.SessionKey]float64{}
	for _, s := range gs.Sessions {
		batches += s.Batches
		batched += s.BatchedTasks
		periods[s.Key] = s.PeriodSeconds
	}
	put("serve.mean_batch", float64(batched)/float64(max(batches, 1)), "count")
	sent := make([]int, len(w.sessions))
	shed := make([]int, len(w.sessions))
	for _, o := range stats["over"].outcomes {
		sent[o.session]++
		if o.status == http.StatusTooManyRequests {
			shed[o.session]++
		}
	}
	shedFrac := map[string]float64{}
	lo, hi := math.Inf(1), 0.0
	for i, s := range w.sessions {
		f := float64(shed[i]) / float64(max(sent[i], 1))
		shedFrac[s.label] = f
		lo, hi = math.Min(lo, f), math.Max(hi, f)
	}
	tables["serve.shed_frac.over"] = shedFrac
	put("serve.shed_frac.max_session", hi, "fraction")
	put("serve.shed_frac.min_session", lo, "fraction")

	// queueing: the EWMA estimate against the scheduled rate, and the
	// traffic-weighted modelled period against the measured one.
	for _, n := range []string{"light", "knee", "over"} {
		put("queueing.rate_est_ratio."+n, stats[n].rateEstimate/stats[n].rate, "ratio")
	}
	var modelled, weights float64
	for _, s := range w.sessions {
		plan := s.plan
		if plan == "" {
			plan = serve.PlanPICO
		}
		modelled += s.weight * periods[serve.SessionKey{Model: b.m.Name, Plan: plan, Quant: s.quant}]
		weights += s.weight
	}
	satRPS := float64(stats["sat"].completed) / stats["sat"].seconds
	put("queueing.period_ratio", modelled/weights*satRPS, "ratio")

	// runtime, as the gateway saw it: X-Pico-Latency of light and knee.
	task := append(append([]float64(nil), stats["light"].picoMs...), stats["knee"].picoMs...)
	sort.Float64s(task)
	put("runtime.task_ms.p50", quantile(task, 0.5), "ms")
	put("runtime.task_ms.p99", quantile(task, 0.99), "ms")

	put("telemetry.scrape_ms", quantile(sc.ms, 0.5), "ms")
	put("trace.overhead_frac", quantile(stats["light"].latMs, 0.5)/quantile(untracedLight.latMs, 0.5), "ratio")

	// core and partition: the main session's plan.
	var plan *core.Plan
	var planMs []float64
	for i := 0; i < layerReps; i++ {
		var err error
		d := tr.timed("core.PlanPipeline", func() { plan, err = b.planFor(w.sessions[0]) })
		if err != nil {
			return nil, err
		}
		planMs = append(planMs, ms(d))
	}
	put("core.plan_ms", median(planMs), "ms")
	put("core.stages", float64(len(plan.Stages)), "count")
	cm := plan.CostModel()
	var work float64
	for _, s := range plan.Stages {
		work += cm.SegmentWork(s.From, s.To, s.Parts)
	}
	put("partition.redundancy", work/float64(b.m.TotalFLOPs()), "ratio")
	tables["plan"] = plan.Describe()

	if err := b.replay(m, tables, st, plan, tr); err != nil {
		return nil, err
	}
	if err := b.wireCost(m, plan, tr); err != nil {
		return nil, err
	}
	if err := b.stageCompute(m, plan, tr); err != nil {
		return nil, err
	}
	residual, err := b.layerResidual(m, tr)
	if err != nil {
		return nil, err
	}
	tables["layer_residual"] = residual
	fig, err := b.simulated(m, stats, tr)
	if err != nil {
		return nil, err
	}
	tables["fig10_11"] = fig
	sweep, err := forwardSweep(m, tr)
	if err != nil {
		return nil, err
	}
	tables["forward_sweep"] = sweep
	return tables, nil
}

// replay drives a direct runtime.Pipeline for the main session's plan with
// the light schedule's requests for up to replayWindow, reading per-stage
// timing from TaskResult.Spans and utilization from WorkerStats.
func (b *bench) replay(m map[string]metric, tables map[string]any, st *stack, plan *core.Plan, tr *tracer) error {
	s := b.w.sessions[0]
	pipe, err := runtime.NewPipeline(plan, st.lc.Addrs, runtime.PipelineOptions{Seed: weightSeed, Quantized: s.quant})
	if err != nil {
		return err
	}
	reqs := openLoopSchedule(rngFor(b.seed, b.w.name, "phase/light"), b.w.light, replayWindow, 1, []float64{1}, b.w.pool)
	want := make(map[int64][]byte, len(reqs))
	var results []runtime.TaskResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range pipe.Results() {
			results = append(results, r)
		}
	}()
	start := time.Now()
	var submitErr error
	for _, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		in, err := wire.DecodeTensor(b.m.Input.C, b.m.Input.H, b.m.Input.W, b.c.payload[r.input])
		if err != nil {
			submitErr = err
			break
		}
		t0 := time.Now()
		id, err := pipe.Submit(in)
		tr.record("runtime.Pipeline.Submit", 0, t0, time.Now(), nil)
		if err != nil {
			submitErr = err
			break
		}
		want[id] = b.c.want[b2i(s.quant)][r.input]
	}
	closeErr := pipe.Close()
	<-done
	wall := time.Since(start).Seconds()
	if err := errors.Join(submitErr, closeErr); err != nil {
		return fmt.Errorf("pipeline replay: %w", err)
	}
	stageMs := make([][]float64, len(plan.Stages))
	var waitMs []float64
	for _, r := range results {
		if r.Err != nil || !bytes.Equal(wire.EncodeTensor(r.Output), want[r.ID]) {
			return fmt.Errorf("pipeline replay: task %d: error %v or output differs from reference", r.ID, r.Err)
		}
		for i, sp := range r.Spans {
			stageMs[i] = append(stageMs[i], ms(sp.End.Sub(sp.Start)))
			if i > 0 {
				waitMs = append(waitMs, ms(sp.Start.Sub(r.Spans[i-1].End)))
			}
		}
	}
	var maxStage, sumStage float64
	stageP50 := make([]float64, len(stageMs))
	for i, v := range stageMs {
		stageP50[i] = median(v)
		maxStage = math.Max(maxStage, stageP50[i])
		sumStage += stageP50[i]
	}
	tables["runtime.stage_ms.p50"] = stageP50
	m["runtime.stage_ms.p50.max"] = metric{maxStage, "ms"}
	m["runtime.stage_ms.p50.sum"] = metric{sumStage, "ms"}
	m["runtime.interstage_wait_ms.p50"] = metric{median(waitMs), "ms"}
	busy := map[int]float64{}
	lo, hi := math.Inf(1), 0.0
	for d, ws := range pipe.WorkerStats() {
		if ws.Tiles == 0 {
			continue
		}
		busy[d] = ws.ComputeSeconds / wall
		lo, hi = math.Min(lo, busy[d]), math.Max(hi, busy[d])
	}
	tables["runtime.busy_frac"] = busy
	m["runtime.busy_frac.max"] = metric{hi, "fraction"}
	m["runtime.busy_frac.min"] = metric{lo, "fraction"}
	events, dropped := pipe.FaultEvents()
	m["runtime.faults"] = metric{float64(len(events) + dropped), "count"}
	return nil
}

// wireCost prices one task's boundary tiles: the bytes every stage's strips
// send in and out, and the time to encode and decode them.
func (b *bench) wireCost(m map[string]metric, plan *core.Plan, tr *tracer) error {
	cm := plan.CostModel()
	shapes := b.m.Shapes()
	var bytesPerTask int64
	var tiles [][2]nn.Shape
	for _, s := range plan.Stages {
		for _, part := range s.Parts {
			if part.Empty() {
				continue
			}
			in, out := cm.Calc.SegmentIOBytes(s.From, s.To, part)
			bytesPerTask += (in + out) * int64(cm.BytesPerElem) / 4
			inR := cm.Calc.InputRange(s.From, s.To, part)
			tiles = append(tiles, [2]nn.Shape{
				{C: shapes[s.From].C, H: inR.Len(), W: shapes[s.From].W},
				{C: shapes[s.To].C, H: part.Len(), W: shapes[s.To].W},
			})
		}
	}
	m["wire.bytes_per_task"] = metric{float64(bytesPerTask), "bytes"}
	var perTask []float64
	for r := 0; r < codecReps; r++ {
		var total time.Duration
		for i, t := range tiles {
			for _, sh := range t {
				x := tensor.RandomInput(sh, int64(i))
				var err error
				total += tr.timed("wire.codec", func() {
					if plan.Quantized {
						q := tensor.QuantizeTensor(x, 0.05)
						_, err = wire.DecodeQTensor(sh.C, sh.H, sh.W, q.Scale, wire.EncodeQTensor(q))
					} else {
						_, err = wire.DecodeTensor(sh.C, sh.H, sh.W, wire.EncodeTensor(x))
					}
				})
				if err != nil {
					return err
				}
			}
		}
		perTask = append(perTask, ms(total))
	}
	m["wire.codec_ms_per_task"] = metric{median(perTask), "ms"}
	return nil
}

// stageCompute times a local RunSegment (RunSegmentQ for an int8 plan) of
// each stage's strips at the workers' parallelism; a stage takes as long as
// its slowest strip.
func (b *bench) stageCompute(m map[string]metric, plan *core.Plan, tr *tracer) error {
	opts := []tensor.ExecutorOption{tensor.WithParallelism(b.w.workerPar)}
	if plan.Quantized {
		opts = append(opts, tensor.WithQuantized())
	}
	e, err := tensor.NewExecutor(b.m, weightSeed, opts...)
	if err != nil {
		return err
	}
	var scales []float32
	if plan.Quantized {
		if scales, err = e.QuantScales(); err != nil {
			return err
		}
	}
	// strip runs one strip of a stage from the float boundary map fm.
	strip := func(s core.Stage, fm tensor.Tensor, part partition.Range) (time.Duration, error) {
		inR := e.InputRange(s.From, s.To, part)
		tile := fm.SliceRows(inR.Lo, inR.Hi)
		defer tensor.Recycle(tile)
		if !plan.Quantized {
			var out tensor.Tensor
			d := tr.timed("tensor.RunSegment", func() { out, err = e.RunSegment(s.From, s.To, tile, part) })
			tensor.Recycle(out)
			return d, err
		}
		q := tensor.QuantizeTensor(tile, scales[s.From])
		defer tensor.RecycleQ(q)
		var out tensor.QTensor
		d := tr.timed("tensor.RunSegmentQ", func() { out, err = e.RunSegmentQ(s.From, s.To, q, part) })
		tensor.RecycleQ(out)
		return d, err
	}
	fm := tensor.RandomInput(b.m.Input, 7)
	var maxStage, sumStage float64
	for _, s := range plan.Stages {
		var reps []float64
		for r := 0; r < layerReps; r++ {
			var slowest time.Duration
			for _, part := range s.Parts {
				if part.Empty() {
					continue
				}
				d, err := strip(s, fm, part)
				if err != nil {
					return err
				}
				slowest = max(slowest, d)
			}
			reps = append(reps, ms(slowest))
		}
		maxStage = math.Max(maxStage, median(reps))
		sumStage += median(reps)
		outH := b.m.OutShape(s.To - 1).H
		inR := e.InputRange(s.From, s.To, partition.Full(outH))
		if fm, err = e.RunSegment(s.From, s.To, fm.SliceRows(inR.Lo, inR.Hi), partition.Full(outH)); err != nil {
			return err
		}
	}
	m["tensor.stage_ms.max"] = metric{maxStage, "ms"}
	m["tensor.stage_ms.sum"] = metric{sumStage, "ms"}
	return nil
}

// residualRow is one layer of the cost-model residual table.
type residualRow struct {
	Layer       string  `json:"layer"`
	Kind        string  `json:"kind"`
	MACs        int64   `json:"macs"`
	MeasuredMs  float64 `json:"measured_ms"`
	PredictedMs float64 `json:"predicted_ms"`
	// Residual is measured/predicted − 1; zero-MAC layers (pools), which
	// the cost model prices at nothing, have none.
	Residual *float64 `json:"residual,omitempty"`
}

// layerResidual times every layer locally at the workers' parallelism and
// compares it with the cost model's FLOPs/ϑ at the workload's calibrated
// native speed.
func (b *bench) layerResidual(m map[string]metric, tr *tracer) ([]residualRow, error) {
	e, err := tensor.NewExecutor(b.m, weightSeed, tensor.WithParallelism(b.w.workerPar))
	if err != nil {
		return nil, err
	}
	cm := core.NewCostModel(b.m, b.w.cluster())
	speed := b.w.nativeSpeed
	fm := tensor.RandomInput(b.m.Input, 11)
	var rows []residualRow
	var sq, worst float64
	n := 0
	for i := range b.m.Layers {
		outH := b.m.OutShape(i).H
		inR := e.InputRange(i, i+1, partition.Full(outH))
		tile := fm.SliceRows(inR.Lo, inR.Hi)
		var reps []float64
		var out tensor.Tensor
		for r := 0; r < layerReps; r++ {
			if r > 0 {
				tensor.Recycle(out)
			}
			d := tr.timed("tensor.RunSegment.layer", func() { out, err = e.RunSegment(i, i+1, tile, partition.Full(outH)) })
			if err != nil {
				return nil, err
			}
			reps = append(reps, ms(d))
		}
		fm = out
		macs := cm.M.LayerFLOPs(i)
		row := residualRow{
			Layer: b.m.Layers[i].Name, Kind: b.m.Layers[i].Kind.String(), MACs: macs,
			MeasuredMs: median(reps), PredictedMs: 1e3 * float64(macs) / speed,
		}
		if macs > 0 {
			r := row.MeasuredMs/row.PredictedMs - 1
			row.Residual = &r
			sq += r * r
			worst = math.Max(worst, math.Abs(r))
			n++
		}
		rows = append(rows, row)
	}
	m["core.layer_residual.rms"] = metric{math.Sqrt(sq / float64(max(n, 1))), "ratio"}
	m["core.layer_residual.max"] = metric{worst, "ratio"}
	return rows, nil
}

// figRow is one phase of the real-runtime Figs. 10/11 comparison.
type figRow struct {
	Phase          string  `json:"phase"`
	RatePerS       float64 `json:"rate_per_s"`
	MeasuredP50Ms  float64 `json:"measured_p50_ms"`
	MeasuredMeanMs float64 `json:"measured_mean_ms"`
	MeasuredP99Ms  float64 `json:"measured_p99_ms"`
	PredictedP50Ms float64 `json:"predicted_p50_ms"`
	PredictedMean  float64 `json:"predicted_mean_ms"`
	PredictedP99Ms float64 `json:"predicted_p99_ms"`
}

// simulated replays each open phase's arrivals through simulate.RunOpenLoop
// on every session's plan and sets the measured latencies beside the
// prediction. The simulator sheds nothing, so over is compared against an
// unbounded queue.
func (b *bench) simulated(m map[string]metric, stats map[string]*phaseStats, tr *tracer) ([]figRow, error) {
	profiles := make([]*simulate.ExecProfile, len(b.w.sessions))
	for i, s := range b.w.sessions {
		p, err := b.planFor(s)
		if err != nil {
			return nil, err
		}
		profiles[i] = simulate.FromPlan(s.label, p)
	}
	var rows []figRow
	for _, n := range []string{"light", "knee", "over"} {
		ps := stats[n]
		arrivals := make([][]float64, len(profiles))
		for _, o := range ps.outcomes {
			arrivals[o.session] = append(arrivals[o.session], o.due.Sub(ps.outcomes[0].due).Seconds())
		}
		var predicted []float64
		for i, p := range profiles {
			sort.Float64s(arrivals[i])
			var res *simulate.Result
			var err error
			tr.timed("simulate.RunOpenLoop", func() { res, err = simulate.RunOpenLoop(p, arrivals[i], b.w.cluster().Size()) })
			if err != nil {
				return nil, err
			}
			for _, l := range res.Latencies {
				predicted = append(predicted, 1e3*l)
			}
		}
		sort.Float64s(predicted)
		row := figRow{
			Phase: n, RatePerS: ps.rate,
			MeasuredP50Ms: quantile(ps.latMs, 0.5), MeasuredMeanMs: mean(ps.latMs), MeasuredP99Ms: quantile(ps.latMs, 0.99),
			PredictedP50Ms: quantile(predicted, 0.5), PredictedMean: mean(predicted), PredictedP99Ms: quantile(predicted, 0.99),
		}
		rows = append(rows, row)
		m["simulate.p50_ratio."+n] = metric{row.MeasuredP50Ms / row.PredictedP50Ms, "ratio"}
	}
	fmt.Fprintf(os.Stderr, "%s: real runtime vs simulate.RunOpenLoop (Figs. 10/11)\n", b.w.name)
	fmt.Fprintf(os.Stderr, "  %-6s %8s %10s %10s %10s %10s %10s %10s\n", "phase", "rate/s", "meas p50", "sim p50", "meas mean", "sim mean", "meas p99", "sim p99")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-6s %8.1f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n", r.Phase, r.RatePerS,
			r.MeasuredP50Ms, r.PredictedP50Ms, r.MeasuredMeanMs, r.PredictedMean, r.MeasuredP99Ms, r.PredictedP99Ms)
	}
	return rows, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sweepRow is one configuration of the MobileNetV1 forward sweep.
type sweepRow struct {
	Precision   string             `json:"precision"`
	Parallelism int                `json:"parallelism"`
	ForwardMs   float64            `json:"forward_ms"`
	KindMs      map[string]float64 `json:"kind_ms_per_forward"`
}

// forwardSweep times whole MobileNetV1 forwards, float and int8, on one
// core and on GOMAXPROCS cores, with the executor's per-kind kernel time.
// It runs on every workload, so later changes get one place to read kernel
// and forward speed from. The four configurations take turns, one forward
// each per round, and each reports its fastest round: on the reference host
// a one-core forward runs at one of two speeds, depending on which vCPU it
// lands on (float par1 ~42 or ~60 ms), so a median flips between the two
// from run to run while the fastest round moves only with the code.
func forwardSweep(m map[string]metric, tr *tracer) ([]sweepRow, error) {
	model := nn.MobileNetV1()
	in := tensor.RandomInput(model.Input, 5)
	type config struct {
		row     sweepRow
		e       *tensor.Executor
		quant   bool
		parName string
		reps    []float64
		kindMs  []map[string]float64
		mallocs uint64
	}
	var configs []*config
	for _, quant := range []bool{false, true} {
		for i, par := range []int{1, goruntime.GOMAXPROCS(0)} {
			opts := []tensor.ExecutorOption{tensor.WithParallelism(par)}
			prec := "float"
			if quant {
				opts = append(opts, tensor.WithQuantized())
				prec = "int8"
			}
			e, err := tensor.NewExecutor(model, weightSeed, opts...)
			if err != nil {
				return nil, err
			}
			configs = append(configs, &config{
				row: sweepRow{Precision: prec, Parallelism: par},
				e:   e, quant: quant, parName: []string{"par1", "parN"}[i],
			})
		}
	}
	forward := func(c *config) error {
		if c.quant {
			out, err := c.e.RunQ(in)
			tensor.RecycleQ(out)
			return err
		}
		out, err := c.e.Run(in)
		tensor.Recycle(out)
		return err
	}
	for _, c := range configs { // warm-up: weights, calibration, arenas
		if err := forward(c); err != nil {
			return nil, err
		}
	}
	for r := 0; r < sweepReps; r++ {
		for _, c := range configs {
			kind0 := c.e.KindSeconds()
			var ms0, ms1 goruntime.MemStats
			goruntime.ReadMemStats(&ms0)
			var err error
			d := tr.timed("tensor.forward."+c.row.Precision+"."+c.parName, func() { err = forward(c) })
			if err != nil {
				return nil, err
			}
			goruntime.ReadMemStats(&ms1)
			c.reps = append(c.reps, ms(d))
			c.mallocs += ms1.Mallocs - ms0.Mallocs
			kind := map[string]float64{}
			for k, v := range c.e.KindSeconds() {
				kind[k] = 1e3 * (v - kind0[k])
			}
			c.kindMs = append(c.kindMs, kind)
		}
	}
	var rows []sweepRow
	for _, c := range configs {
		best := 0
		for r, v := range c.reps {
			if v < c.reps[best] {
				best = r
			}
		}
		row := c.row
		row.ForwardMs, row.KindMs = c.reps[best], c.kindMs[best]
		rows = append(rows, row)
		m[fmt.Sprintf("tensor.forward_ms.%s.%s", row.Precision, c.parName)] = metric{row.ForwardMs, "ms"}
		if !c.quant && c.parName == "par1" {
			for k, v := range row.KindMs {
				m["tensor.kind_ms."+k] = metric{v, "ms"}
			}
			m["tensor.allocs_per_forward"] = metric{float64(c.mallocs) / sweepReps, "count"}
		}
	}
	return rows, nil
}
