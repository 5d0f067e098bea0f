// Command perfbench is the repository's serving benchmark. It drives the
// picoserve gateway in-process with a seeded open-loop arrival schedule,
// checks every response against a local reference executor, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one JSON
// line:
//
//	bash perfbench/run.sh --workload hetero-emulated --seed 1 --seconds 55 --trace 0
//
// Each run measures the same phases in the same order: sat (a closed loop
// with a fixed number of outstanding requests), then Poisson arrivals at the
// workload's fixed light, knee and over rates. Workloads, rates and limits
// are fixed in workload.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"syscall"
	"time"

	"pico/internal/tensor"
)

// setupRepeats is how many times the untraced run boots the whole stack;
// setup_s is the median.
const setupRepeats = 5

// lateFracLimit flags a run invalid when the generator's p99 lateness at
// light load exceeds this fraction of lat_p50_ms.light: the generator's
// tail, not the system, would then be setting the light-load numbers.
// Sleeps on the reference host overshoot by up to ~5 ms at p99 even when
// idle, which is why the fraction is not smaller.
const lateFracLimit = 1.0

// phase is one measured traffic phase and its share of the run's seconds.
type phase struct {
	name   string
	open   bool
	share  float64
	traced bool
}

func phases(trace bool) []phase {
	ps := []phase{
		{name: "sat", share: 0.08},
		{name: "light", open: true, share: 0.34},
		{name: "knee", open: true, share: 0.50},
		{name: "over", open: true, share: 0.08},
	}
	if !trace {
		return ps
	}
	// The untraced twin of light is the base of trace.overhead_frac. The
	// traced run fits its five phases into the same seconds.
	base := ps[1]
	for i := range ps {
		ps[i].traced = true
	}
	ps = append([]phase{base}, ps...)
	for i := range ps {
		ps[i].share /= 1 + base.share
	}
	return ps
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and arrival schedule")
	seconds := fs.Int("seconds", 30, "seconds of measured traffic")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build/trace", "directory the traced run writes its spans and tables to")
	calib := fs.Bool("calibrate", false, "print the workload's one-off loopback and capacity calibration and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q seconds %d trace %d\n", *name, *seconds, *trace)
		return 2
	}
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	if *calib {
		if err := calibrate(w, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: calibrate %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	b := &bench{w: w, seed: *seed, m: w.model(), seconds: time.Duration(*seconds) * time.Second}
	res, info, err := b.execute(*trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	// A run that measured prints its result and exits 0, also when an
	// output was wrong: the result's correct and failed fields report it.
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(info)
	_ = enc.Encode(res)
	return 0
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"simd_name":  tensor.SIMDName(),
		"go_version": goruntime.Version(),
		"commit":     commit,
	}
}

// execute runs the whole measurement: corpus, set-ups, socket smoke test,
// phases, and (traced) the per-layer measurements.
func (b *bench) execute(trace bool, outDir string) (*result, map[string]any, error) {
	w := b.w
	c, err := buildCorpus(w, b.m, b.seed)
	if err != nil {
		return nil, nil, err
	}
	b.c = c

	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	var setups []float64
	var st *stack
	for i := 0; i < repeats; i++ {
		s, d, err := b.startStack()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < repeats-1 {
			if err := s.close(); err != nil {
				return nil, nil, fmt.Errorf("close set-up stack: %w", err)
			}
			continue
		}
		st = s
	}
	defer func() { _ = st.close() }()
	if err := b.smoke(st, 2); err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	var scrape *scraper
	h := st.g.Handler()
	stats := map[string]*phaseStats{}
	var untracedLight *phaseStats
	var ledgerErr error
	attempted, failed := 0, 0
	for _, p := range phases(trace) {
		dur := time.Duration(p.share * float64(b.seconds))
		b.tr = nil
		if p.traced {
			b.tr = tr
			if scrape == nil {
				scrape = startScraper(h, tr)
			}
		}
		st.alignToWindow()
		cpu0, wall0 := cpuSeconds(), time.Now()
		var ps *phaseStats
		if p.open {
			rate := w.rate(p.name)
			reqs := openLoopSchedule(rngFor(b.seed, w.name, "phase/"+p.name), rate, dur, w.burst, w.mix(), w.pool)
			out, length := b.openLoop(h, reqs)
			ps = summarize(p.name, true, out, w.limit)
			ps.rate = rate
			ps.seconds = length.Seconds()
			ps.rateEstimate = st.g.GatewayStats().RateEstimate
		} else {
			seq := closedLoopSequence(rngFor(b.seed, w.name, "phase/sat"), 1<<16, w.mix(), w.pool)
			out, start, end := b.closedLoop(h, w.satClients, dur, seq)
			ps = summarize(p.name, false, out, w.limit)
			ps.seconds = end.Sub(start).Seconds()
			for _, o := range out {
				if o.status == http.StatusOK && o.match && !o.done.After(end) {
					ps.completed++
				}
			}
		}
		if gs := st.g.GatewayStats(); gs.Queued != 0 || gs.Admitted != gs.Completed+gs.Failed+gs.Canceled {
			ledgerErr = errors.Join(ledgerErr, fmt.Errorf("phase %s: ledger does not balance: queued %d admitted %d completed %d failed %d canceled %d",
				p.name, gs.Queued, gs.Admitted, gs.Completed, gs.Failed, gs.Canceled))
		}
		ps.cpuFrac = (cpuSeconds() - cpu0) / time.Since(wall0).Seconds() / float64(goruntime.GOMAXPROCS(0))
		attempted += ps.sent
		failed += ps.fail
		if trace && !p.traced {
			untracedLight = ps
		} else {
			stats[p.name] = ps
		}
	}
	if scrape != nil {
		scrape.stop()
	}
	b.tr = nil

	// Lateness is judged at light load, where a late generator would most
	// distort the latency reported; under knee and over load the host is
	// busy by design and lateness shows as the queueing it really causes.
	lateP99 := quantile(stats["light"].lateMs, 0.99)
	lightP50 := quantile(stats["light"].latMs, 0.5)
	info := environment()
	info["workload"] = w.name
	info["seed"] = b.seed
	info["seconds"] = b.seconds.Seconds()
	info["trace"] = trace
	info["harness_late_p99_ms"] = lateP99
	info["valid"] = validRun(lateP99, lightP50)
	info["fail_frac"] = float64(failed) / float64(max(attempted, 1))
	info["phases"] = phaseTable(stats)
	info["sessions"] = st.g.GatewayStats().Sessions
	if ledgerErr != nil {
		info["ledger"] = ledgerErr.Error()
	}
	if !validRun(lateP99, lightP50) {
		fmt.Fprintf(os.Stderr, "perfbench: run INVALID: generator p99 lateness %.3f ms exceeds %.0f%% of lat_p50_ms.light %.3f ms\n",
			lateP99, 100*lateFracLimit, lightP50)
	}

	res := &result{
		Correct:   failed == 0 && ledgerErr == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if !trace {
		endToEnd(res.Metrics, stats, setups)
		return res, info, nil
	}
	tables, err := b.perLayer(res.Metrics, st, stats, untracedLight, tr, scrape)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics["harness.late_ms.p99"] = metric{lateP99, "ms"}
	if err := writeTrace(outDir, b, info, tables, tr); err != nil {
		return nil, nil, err
	}
	return res, info, nil
}

// validRun reports whether the generator kept to its schedule well enough
// for the light-load latency to describe the system.
func validRun(lateP99Ms, lightP50Ms float64) bool {
	return lateP99Ms <= lateFracLimit*lightP50Ms
}

func (w *workload) rate(phase string) float64 {
	switch phase {
	case "light":
		return w.light
	case "knee":
		return w.knee
	}
	return w.over
}

func endToEnd(m map[string]metric, stats map[string]*phaseStats, setups []float64) {
	m["setup_s"] = metric{median(setups), "s"}
	for _, n := range []string{"light", "knee"} {
		m["lat_p50_ms."+n] = metric{quantile(stats[n].latMs, 0.5), "ms"}
		m["lat_p99_ms."+n] = metric{stats[n].p99, "ms"}
	}
	for _, n := range []string{"knee", "over"} {
		m["goodput_rps."+n] = metric{float64(stats[n].good) / stats[n].seconds, "1/s"}
	}
	over := stats["over"]
	m["shed_frac.over"] = metric{float64(over.shed) / float64(max(over.sent, 1)), "fraction"}
	m["sat_rps"] = metric{float64(stats["sat"].completed) / stats["sat"].seconds, "1/s"}
	m["maxrss_mb"] = metric{maxRSSMB(), "MB"}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phaseTable is the per-phase summary printed in the info line.
func phaseTable(stats map[string]*phaseStats) map[string]any {
	out := map[string]any{}
	for n, ps := range stats {
		out[n] = map[string]any{
			"sent": ps.sent, "ok": ps.ok, "good": ps.good, "shed": ps.shed, "fail": ps.fail,
			"seconds": ps.seconds, "rate": ps.rate,
			"p50_ms": quantile(ps.latMs, 0.5), "p99_ms": ps.p99, "n_ok": len(ps.latMs),
			"late_p50_ms": quantile(ps.lateMs, 0.5), "late_p99_ms": quantile(ps.lateMs, 0.99), "rate_estimate": ps.rateEstimate, "cpu_frac": ps.cpuFrac,
		}
	}
	return out
}

func writeTrace(dir string, b *bench, info map[string]any, tables map[string]any, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"info": info, "tables": tables, "spans": tr.snapshot()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
