package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/nn"
)

// requestTimeout bounds how long after its due time (closed loop: after the
// phase's end) a request may stay unanswered; it then counts as a timeout,
// which is always a failure.
const requestTimeout = 20 * time.Second

// leadIn is how far ahead of the first due time a phase's clock starts, so
// the generator is not late on its first request.
const leadIn = 20 * time.Millisecond

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	m       *nn.Model
	c       *corpus
	tr      *tracer
	seconds time.Duration
}

// outcome is what the harness saw of one request.
type outcome struct {
	session         int
	due, sent, done time.Time
	status          int
	match           bool
	// pico is the gateway's X-Pico-Latency: pipeline submit to result.
	pico time.Duration
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// recorder is a minimal in-memory http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

var recorders = sync.Pool{New: func() any { return &recorder{hdr: make(http.Header)} }}

// call serves one request through h in-process and checks the body against
// the local reference. ctx carries the phase's deadline (one timer per
// phase, not per request, keeps the harness's own load low); a handler that
// answers nothing (status 0) timed out.
func (b *bench) call(ctx context.Context, h http.Handler, r request, due time.Time) outcome {
	s := b.w.sessions[r.session]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/infer?"+s.query(b.m.Name), bytes.NewReader(b.c.payload[r.input]))
	if err != nil {
		panic(err) // constant method and URL: only a bug gets here
	}
	rec := recorders.Get().(*recorder)
	defer func() {
		clear(rec.hdr)
		rec.status = 0
		rec.body.Reset()
		recorders.Put(rec)
	}()
	o := outcome{session: r.session, due: due, sent: time.Now()}
	h.ServeHTTP(rec, req)
	o.done = time.Now()
	o.status = rec.status
	if o.status == http.StatusOK {
		o.match = bytes.Equal(rec.body.Bytes(), b.c.want[b2i(s.quant)][r.input])
		if d, err := time.ParseDuration(rec.hdr.Get("X-Pico-Latency")); err == nil {
			o.pico = d
		}
	}
	if b.tr != nil {
		id := b.tr.record("serve.handler", 0, o.sent, o.done, map[string]float64{"status": float64(o.status), "session": float64(r.session)})
		if o.pico > 0 {
			b.tr.record("runtime.task", id, o.done.Add(-o.pico), o.done, nil)
		}
	}
	return o
}

// openLoop sends reqs at their due times regardless of completions and
// returns once every request has been answered or timed out, with the
// phase's length: from its start to the last answer. Each request is timed
// from its due time, so generator stalls count against latency.
func (b *bench) openLoop(h http.Handler, reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(leadIn)
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].due
	}
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(last+requestTimeout))
	defer cancel()
	// time.Sleep wakes up to about a millisecond late on Linux; a
	// nanosleep on a locked thread wakes sooner when the host is idle but
	// far later under load, when it must queue for a processor.
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			out[i] = b.call(ctx, h, r, due)
		}(i, r, due)
	}
	wg.Wait()
	end := start
	for _, o := range out {
		if o.done.After(end) {
			end = o.done
		}
	}
	return out, end.Sub(start)
}

// closedLoop keeps clients requests outstanding for dur, taking requests
// from seq in order, and returns every outcome plus the window end.
func (b *bench) closedLoop(h http.Handler, clients int, dur time.Duration, seq []request) ([]outcome, time.Time, time.Time) {
	var (
		mu   sync.Mutex
		out  []outcome
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	ctx, cancel := context.WithDeadline(context.Background(), end.Add(requestTimeout))
	defer cancel()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r := seq[int(next.Add(1)-1)%len(seq)]
				o := b.call(ctx, h, r, time.Now())
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, start, end
}

// smoke sends one request per session and input over the gateway's real
// loopback listener and checks the socket path returns the same bytes.
func (b *bench) smoke(st *stack, inputs int) error {
	addr, err := st.g.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- st.g.Serve() }()
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	var firstErr error
	for si, s := range b.w.sessions {
		for i := 0; i < inputs && i < len(b.c.payload); i++ {
			resp, err := client.Post("http://"+addr+"/infer?"+s.query(b.m.Name), "application/octet-stream", bytes.NewReader(b.c.payload[i]))
			if err != nil {
				firstErr = err
				break
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode != http.StatusOK || !bytes.Equal(body, b.c.want[b2i(s.quant)][i])) {
				err = fmt.Errorf("socket smoke: session %d input %d: status %d, body differs from reference", si, i, resp.StatusCode)
			}
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	// Serve keeps running until the stack's Shutdown; hand its exit to it.
	st.serveErr = serveErr
	return firstErr
}

// phaseStats summarizes one phase's outcomes.
type phaseStats struct {
	name    string
	rate    float64 // scheduled requests/s (open loop)
	seconds float64 // phase length: start to last answer (open) or window (closed)
	sent    int
	ok      int // 200 with the reference bytes
	good    int // ok and within the latency limit
	shed    int // 429
	fail    int
	// latMs and lateMs are sorted; latMs covers 200s only.
	latMs, lateMs, picoMs []float64
	// p99 is the phase's tail latency: see windowedP99.
	p99      float64
	outcomes []outcome
	// completed is the closed loop's 200s finished inside its window.
	completed int
	// rateEstimate is the gateway's EWMA arrival estimate at phase end.
	rateEstimate float64
	// cpuFrac is the share of the host's processors the whole process
	// (system and harness) kept busy during the phase.
	cpuFrac float64
}

// summarize applies the failure rule: in over every 5xx, timeout or
// mismatch fails; in every other phase so does any non-200.
func summarize(name string, open bool, out []outcome, limit time.Duration) *phaseStats {
	ps := &phaseStats{name: name, sent: len(out), outcomes: out}
	for _, o := range out {
		switch {
		case o.status == http.StatusOK && o.match:
			ps.ok++
			lat := o.latency()
			ps.latMs = append(ps.latMs, ms(lat))
			ps.picoMs = append(ps.picoMs, ms(o.pico))
			if lat <= limit {
				ps.good++
			}
		case o.status == http.StatusOK:
			ps.fail++ // output mismatch
		case o.status == http.StatusTooManyRequests:
			ps.shed++
			if name != "over" {
				ps.fail++
			}
		case o.status == 0 || o.status >= 500:
			ps.fail++
		default:
			if name != "over" {
				ps.fail++
			}
		}
		if open {
			ps.lateMs = append(ps.lateMs, ms(o.sent.Sub(o.due)))
		}
	}
	ps.p99 = windowedP99(ps.latMs)
	sort.Float64s(ps.latMs)
	sort.Float64s(ps.lateMs)
	sort.Float64s(ps.picoMs)
	return ps
}

// tailWindow is the fewest requests a p99 is taken over: ten beyond it.
const tailWindow = 1000

// windowedP99 splits a phase's latencies, in due order, into consecutive
// windows of at least tailWindow requests and returns the median of the
// windows' p99s. A single stall of the shared host then moves one window's
// tail rather than the whole phase's.
func windowedP99(latMs []float64) float64 {
	k := max(1, len(latMs)/tailWindow)
	p99s := make([]float64, k)
	for i := range p99s {
		w := append([]float64(nil), latMs[i*len(latMs)/k:(i+1)*len(latMs)/k]...)
		sort.Float64s(w)
		p99s[i] = quantile(w, 0.99)
	}
	return median(p99s)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
